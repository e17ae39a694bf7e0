package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Thresholds of the bench-regression gate. Timing cells are noisy on
// shared CI machines, so ns/pixel gets a wide tolerance; per-pixel node
// evaluations are deterministic for a fixed seed, so their budget is
// tight — a traversal regression shows up there long before it is
// distinguishable from timer noise. The overhead numbers are the PR4/PR5
// acceptance criteria and are gated absolutely, not against the old file.
const (
	nsPerPixelTolerancePct    = 25.0
	nodesPerPixelTolerancePct = 5.0
	overheadBudgetPct         = 2.0
)

// speedupGateCell is the cell -minspeedup reads: the εKDV tile-shared
// render at the largest benchmarked resolution — the headline
// configuration the flat-engine work targets. The gate is the inverse of
// the regression checks: instead of bounding how much slower the new
// report may be, it requires old/new elapsed_ms to clear a floor, so an
// improvement that a PR claims (and documents) stays machine-checked.
var speedupGateCell = cellKey{Variant: "eps", Res: "512x512", Mode: "tile"}

// cellKey identifies a measured configuration across two reports.
type cellKey struct {
	Variant, Res, Mode string
}

func (k cellKey) String() string { return k.Variant + "/" + k.Res + "/" + k.Mode }

// loadReport reads a kdvbench -json artifact.
func loadReport(path string) (*jsonReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports diffs two -json reports cell by cell and checks the new
// report's overhead numbers against their absolute budgets. A positive
// minSpeedup additionally requires the new report to beat the old one by
// that factor on speedupGateCell; a positive minTileSpeedup requires the
// new report's warm-disk tile serving to beat its own cold build by that
// factor (a within-report gate — the baseline predates the tile store).
// It prints a verdict line per check to out and returns the number of
// regressions.
func compareReports(out io.Writer, oldRep, newRep *jsonReport, minSpeedup, minTileSpeedup float64) int {
	index := func(rep *jsonReport) map[cellKey]jsonCell {
		m := make(map[cellKey]jsonCell, len(rep.Cells))
		for _, c := range rep.Cells {
			m[cellKey{c.Variant, c.Res, c.Mode}] = c
		}
		return m
	}
	oldCells, newCells := index(oldRep), index(newRep)

	regressions := 0
	fail := func(format string, args ...any) {
		regressions++
		fmt.Fprintf(out, "FAIL "+format+"\n", args...)
	}
	// Cells measured under different configurations differ for reasons that
	// have nothing to do with the code; refuse the comparison outright
	// rather than report fabricated regressions.
	for _, c := range []struct {
		field    string
		old, new any
	}{
		{"dataset", oldRep.Dataset, newRep.Dataset},
		{"n", oldRep.N, newRep.N},
		{"kernel", oldRep.Kernel, newRep.Kernel},
		{"method", oldRep.Method, newRep.Method},
		{"eps", oldRep.Eps, newRep.Eps},
		{"tau_sigma", oldRep.TauSigma, newRep.TauSigma},
		{"tile_size", oldRep.TileSize, newRep.TileSize},
	} {
		if c.old != c.new {
			fail("config %-10s %v → %v (reports are not comparable)", c.field, c.old, c.new)
		}
	}
	if regressions > 0 {
		return regressions
	}

	keys := make([]cellKey, 0, len(oldCells))
	for k := range oldCells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	check := func(key cellKey, metric string, oldV, newV, tolerancePct float64) {
		if oldV <= 0 {
			fmt.Fprintf(out, "skip %-22s %-14s old value %.3g not comparable\n", key, metric, oldV)
			return
		}
		deltaPct := (newV - oldV) / oldV * 100
		if deltaPct > tolerancePct {
			fail("%-22s %-14s %10.2f → %-10.2f %+.1f%% (budget +%.0f%%)",
				key, metric, oldV, newV, deltaPct, tolerancePct)
			return
		}
		fmt.Fprintf(out, "ok   %-22s %-14s %10.2f → %-10.2f %+.1f%%\n",
			key, metric, oldV, newV, deltaPct)
	}

	for _, k := range keys {
		oc := oldCells[k]
		nc, ok := newCells[k]
		if !ok {
			fail("%-22s missing from the new report (coverage lost)", k)
			continue
		}
		check(k, "ns_per_pixel", oc.NsPerPixel, nc.NsPerPixel, nsPerPixelTolerancePct)
		check(k, "nodes_per_pixel", oc.NodesPerPixel, nc.NodesPerPixel, nodesPerPixelTolerancePct)
	}
	for k := range newCells {
		if _, ok := oldCells[k]; !ok {
			fmt.Fprintf(out, "new  %-22s (no baseline; not compared)\n", k)
		}
	}

	if minSpeedup > 0 {
		oc, okOld := oldCells[speedupGateCell]
		nc, okNew := newCells[speedupGateCell]
		switch {
		case !okOld || !okNew:
			fail("speedup gate: cell %s missing (in old report: %v, in new: %v)",
				speedupGateCell, okOld, okNew)
		case oc.ElapsedMS <= 0 || nc.ElapsedMS <= 0:
			fail("speedup gate: cell %s has non-positive elapsed_ms (%.3g → %.3g)",
				speedupGateCell, oc.ElapsedMS, nc.ElapsedMS)
		default:
			speedup := oc.ElapsedMS / nc.ElapsedMS
			if speedup < minSpeedup {
				fail("speedup gate %-15s %10.1fms → %-10.1fms %.2fx, below the %.2fx floor",
					speedupGateCell, oc.ElapsedMS, nc.ElapsedMS, speedup, minSpeedup)
			} else {
				fmt.Fprintf(out, "ok   speedup gate %-15s %10.1fms → %-10.1fms %.2fx (floor %.2fx)\n",
					speedupGateCell, oc.ElapsedMS, nc.ElapsedMS, speedup, minSpeedup)
			}
		}
	}

	if minTileSpeedup > 0 {
		ts := newRep.TileServing
		switch {
		case ts == nil:
			fail("tile speedup gate: new report has no tile_serving section")
		case ts.ColdBuildMS <= 0 || ts.WarmDiskMS <= 0:
			fail("tile speedup gate: non-positive timings (cold %.3g ms, disk %.3g ms)",
				ts.ColdBuildMS, ts.WarmDiskMS)
		default:
			speedup := ts.ColdBuildMS / ts.WarmDiskMS
			if speedup < minTileSpeedup {
				fail("tile speedup gate   cold %10.1fms vs disk %-10.1fms %.1fx, below the %.1fx floor",
					ts.ColdBuildMS, ts.WarmDiskMS, speedup, minTileSpeedup)
			} else {
				fmt.Fprintf(out, "ok   tile speedup gate   cold %10.1fms vs disk %-10.1fms %.1fx (floor %.1fx)\n",
					ts.ColdBuildMS, ts.WarmDiskMS, speedup, minTileSpeedup)
			}
		}
	}

	if o := newRep.TracingOverhead; o != nil {
		if o.OffDeltaPct > overheadBudgetPct {
			fail("tracing disabled-path overhead %+.2f%% exceeds the %.0f%% budget", o.OffDeltaPct, overheadBudgetPct)
		} else {
			fmt.Fprintf(out, "ok   tracing disabled-path overhead %+.2f%% (budget %.0f%%)\n", o.OffDeltaPct, overheadBudgetPct)
		}
	}
	if o := newRep.AuditOverhead; o != nil {
		if o.DeltaPct > overheadBudgetPct {
			fail("audit overhead at %.0f%% fraction %+.2f%% exceeds the %.0f%% budget",
				o.Fraction*100, o.DeltaPct, overheadBudgetPct)
		} else {
			fmt.Fprintf(out, "ok   audit overhead at %.0f%% fraction %+.2f%% (budget %.0f%%)\n",
				o.Fraction*100, o.DeltaPct, overheadBudgetPct)
		}
	}
	return regressions
}

// runCompare is the bench-regression gate: kdvbench -compare old.json
// new.json. Exit status 1 means at least one regression.
func runCompare(oldPath, newPath string, minSpeedup, minTileSpeedup float64) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	if n := compareReports(os.Stdout, oldRep, newRep, minSpeedup, minTileSpeedup); n > 0 {
		return fmt.Errorf("%d regression(s) against %s", n, oldPath)
	}
	fmt.Printf("no regressions against %s\n", oldPath)
	return nil
}
