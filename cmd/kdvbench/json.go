package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/audit"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/trace"
)

// jsonCell is one measured render configuration in the -json report.
type jsonCell struct {
	Variant        string  `json:"variant"` // "eps" or "tau"
	Res            string  `json:"res"`
	Mode           string  `json:"mode"` // "tile" or "perpixel"
	ElapsedMS      float64 `json:"elapsed_ms"`
	NsPerPixel     float64 `json:"ns_per_pixel"`
	NodesPerPixel  float64 `json:"nodes_per_pixel"`
	NodesEvaluated int     `json:"nodes_evaluated"`
	SharedEvals    int     `json:"shared_node_evals"`
	LeafScans      int     `json:"leaf_scans"`
	Tiles          int     `json:"tiles"`
	TilesDecided   int     `json:"tiles_decided"`
}

// jsonReport is the `kdvbench -json` report: the tile-shared traversal's
// speedup and traversal-work reduction against the per-pixel baseline, for
// both query variants at two resolutions, and the measurements behind the
// claims checkReport verifies.
type jsonReport struct {
	Dataset  string     `json:"dataset"`
	N        int        `json:"n"`
	Kernel   string     `json:"kernel"`
	Method   string     `json:"method"`
	Eps      float64    `json:"eps"`
	TauSigma float64    `json:"tau_sigma"` // τ = μ + tau_sigma·σ
	Workers  int        `json:"workers"`
	TileSize int        `json:"tile_size"`
	Cells    []jsonCell `json:"cells"`
	// Speedups maps "variant/res" to elapsed(perpixel)/elapsed(tile);
	// NodeReductions maps the same keys to the per-pixel node-evaluation
	// ratio (per-pixel counters only — shared work is reported separately in
	// the cells).
	Speedups       map[string]float64 `json:"speedups"`
	NodeReductions map[string]float64 `json:"node_reductions"`
	// TracingOverhead is what recording every span of a render costs: a
	// render under a trace-carrying context against an untraced one.
	TracingOverhead *overhead `json:"tracing_overhead,omitempty"`
	// TileServing measures the /tiles serving tiers — cold engine build vs
	// warm-disk vs warm-memory on 512² tiles.
	TileServing *tileServing `json:"tile_serving,omitempty"`
	// AuditOverhead is what the serving path's shadow-audit hook costs at
	// the production sampling fraction auditFraction.
	AuditOverhead *overhead `json:"audit_overhead,omitempty"`
}

// overhead is the relative cost of an instrumented render over the bare
// one, timed in alternating pairs: each pair renders both sides, the bare
// side first in even pairs and second in odd ones, because sustained load
// ramps the host's frequency state within a pair and a fixed order would
// favour one side by several percent with no code difference at all.
type overhead struct {
	Res    string  `json:"res"`
	Pairs  int     `json:"pairs"`
	BareMS float64 `json:"bare_ms_median"`
	// DeltaPct is the median over the pairs of (instrumented − bare)/bare
	// × 100.
	DeltaPct float64 `json:"delta_pct"`
	// SpreadPct is the distance between the quartiles of the per-pair
	// deltas: how far apart two measurements of the same code read.
	SpreadPct float64 `json:"spread_pct"`
}

// timePairs times pairs alternating pairs of bare and instrumented.
func timePairs(res quad.Resolution, pairs int, bare, instrumented func() error) (*overhead, error) {
	sides := [2]func() error{bare, instrumented}
	bareMS := make([]float64, pairs)
	deltas := make([]float64, pairs)
	for i := range deltas {
		var ms [2]float64
		for j := range sides {
			side := (i + j) % 2
			start := time.Now()
			if err := sides[side](); err != nil {
				return nil, err
			}
			ms[side] = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		bareMS[i] = ms[0]
		deltas[i] = (ms[1] - ms[0]) / ms[0] * 100
	}
	return &overhead{
		Res:       res.String(),
		Pairs:     pairs,
		BareMS:    quantile(bareMS, 0.5),
		DeltaPct:  quantile(deltas, 0.5),
		SpreadPct: quantile(deltas, 0.75) - quantile(deltas, 0.25),
	}, nil
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics. It sorts xs.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// auditFraction is the share of renders the production audit hook samples.
const auditFraction = 0.01

// auditHook replicates the serve layer's producer hook: flip the sampling
// coin, and when sampled reconstruct the render's grid, draw the audit
// pixels, and submit the job with the exact-oracle binding. Everything the
// request path pays is inside this function; the oracle itself runs on the
// auditor's background pool.
func auditHook(a *audit.Auditor, k *quad.KDV, dm *quad.DensityMap, eps float64) error {
	if !a.ShouldAudit() {
		return nil
	}
	g, err := grid.New(grid.Resolution{W: dm.Res.W, H: dm.Res.H},
		geom.Rect{Min: dm.WindowMin[:], Max: dm.WindowMax[:]})
	if err != nil {
		return err
	}
	idx := a.SamplePixels(len(dm.Values))
	samples := make([]audit.Sample, 0, len(idx))
	q := make([]float64, 2)
	scale := 0.0
	for _, v := range dm.Values {
		if v > scale {
			scale = v
		}
	}
	for _, i := range idx {
		px, py := i%dm.Res.W, i/dm.Res.W
		g.Query(px, py, q)
		samples = append(samples, audit.Sample{
			X: px, Y: py, Q: [2]float64{q[0], q[1]}, Value: dm.Values[i],
		})
	}
	a.Submit(audit.Job{
		Endpoint: "render",
		Dataset:  "crime",
		Method:   quad.MethodQuadratic.String(),
		Kind:     audit.KindEps,
		Eps:      eps,
		Scale:    scale,
		Samples:  samples,
		Exact: func(q []float64) float64 {
			d, err := k.Density(q)
			if err != nil {
				return math.NaN()
			}
			return d
		},
	})
	return nil
}

// measureAuditOverhead times the bare render against the render followed by
// the audit hook at auditFraction.
func measureAuditOverhead(k *quad.KDV, res quad.Resolution, eps float64, pairs int) (*overhead, error) {
	a := audit.New(audit.Config{Fraction: auditFraction, Seed: 1, Registry: telemetry.NewRegistry()})
	defer a.Close()
	render := func(a *audit.Auditor) error {
		dm, err := k.RenderEps(res, eps)
		if err != nil {
			return err
		}
		defer dm.Release()
		if a == nil {
			return nil
		}
		return auditHook(a, k, dm, eps)
	}
	return timePairs(res, pairs, func() error { return render(nil) }, func() error { return render(a) })
}

// measureTracingOverhead times an untraced render against one whose
// context carries a trace, so every span is recorded.
func measureTracingOverhead(k *quad.KDV, res quad.Resolution, eps float64, pairs int) (*overhead, error) {
	req := quad.Request{Res: res, Eps: eps}
	render := func(ctx context.Context) error {
		r, err := k.Render(ctx, req)
		if err != nil {
			return err
		}
		r.Density.Release()
		return nil
	}
	return timePairs(res, pairs,
		func() error { return render(context.Background()) },
		func() error { return render(trace.NewContext(context.Background(), trace.New())) })
}

// The claims checkReport holds a report to.
const (
	// minDiskSpeedup is how many times faster serving a tile from the disk
	// store must be than building it: below it the tile pyramid caches
	// nothing worth keeping.
	minDiskSpeedup = 10.0
	// overheadBudgetPct bounds what tracing and the audit hook may add to a
	// render. A delta whose spread exceeds it cannot be told from noise, so
	// it is unresolved: neither passed nor failed.
	overheadBudgetPct = 2.0
)

// checkReport prints one verdict line per claim — pass, FAIL or
// unresolved — and returns an error naming each claim that failed.
func checkReport(out io.Writer, rep *jsonReport) error {
	var failed []string
	verdict := func(v, claim, format string, args ...any) {
		fmt.Fprintf(out, "%-10s %s: %s\n", v, claim, fmt.Sprintf(format, args...))
		if v == "FAIL" {
			failed = append(failed, claim)
		}
	}
	switch ts := rep.TileServing; {
	case ts == nil:
		verdict("FAIL", "tile serving", "section missing")
	case !(ts.ColdBuildMS > 0 && ts.WarmDiskMS > 0):
		verdict("FAIL", "tile serving", "non-positive timings (cold %.3g ms, disk %.3g ms)", ts.ColdBuildMS, ts.WarmDiskMS)
	default:
		speedup := ts.ColdBuildMS / ts.WarmDiskMS
		v := "pass"
		if speedup < minDiskSpeedup {
			v = "FAIL"
		}
		verdict(v, "tile serving", "warm disk %.1fx faster than a cold build (cold %.1f ms, disk %.3f ms; floor %.0fx)",
			speedup, ts.ColdBuildMS, ts.WarmDiskMS, minDiskSpeedup)
	}
	for _, c := range []struct {
		claim string
		o     *overhead
	}{
		{"tracing overhead", rep.TracingOverhead},
		{fmt.Sprintf("audit overhead at %g%%", auditFraction*100), rep.AuditOverhead},
	} {
		o := c.o
		if o == nil {
			verdict("FAIL", c.claim, "section missing")
			continue
		}
		v := "pass"
		switch {
		case !(o.SpreadPct <= overheadBudgetPct):
			v = "unresolved"
		case !(o.DeltaPct <= overheadBudgetPct):
			v = "FAIL"
		}
		verdict(v, c.claim, "%+.2f%% median of %d pairs at %s, spread %.2f%% (budget %.0f%%)",
			o.DeltaPct, o.Pairs, o.Res, o.SpreadPct, overheadBudgetPct)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d claim(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// overheadPairs is how many alternating pairs each overhead measurement
// times: the quartiles of fewer per-pair deltas say little about spread.
const overheadPairs = 10

// runJSONBench measures tile-shared vs per-pixel rendering, writes the
// report to path and checks its claims (checkReport): it returns an error
// when one fails. It is `make bench`.
func runJSONBench(path string, seed int64, n int) error {
	const eps = 0.05
	const tauSigma = 1.0
	pts, err := dataset.Generate2D("crime", n, seed)
	if err != nil {
		return err
	}

	workers := runtime.GOMAXPROCS(0)
	build := func(tile int) (*quad.KDV, error) {
		return quad.New(pts.Coords, pts.Dim,
			quad.WithKernel(quad.Gaussian),
			quad.WithMethod(quad.MethodQuadratic),
			quad.WithWorkers(workers),
			quad.WithTileSize(tile))
	}
	tiled, err := build(0)
	if err != nil {
		return err
	}
	perPixel, err := build(1)
	if err != nil {
		return err
	}

	rep := jsonReport{
		Dataset:        "crime",
		N:              pts.Len(),
		Kernel:         quad.Gaussian.String(),
		Method:         quad.MethodQuadratic.String(),
		Eps:            eps,
		TauSigma:       tauSigma,
		Workers:        workers,
		TileSize:       16,
		Speedups:       map[string]float64{},
		NodeReductions: map[string]float64{},
	}
	for _, res := range []quad.Resolution{{W: 256, H: 256}, {W: 512, H: 512}} {
		// τ from the map statistics, as the paper's thresholds are defined.
		mu, sigma, err := tiled.ThresholdStatsCtx(context.Background(), res, 8, 0.05)
		if err != nil {
			return err
		}
		tau := mu + tauSigma*sigma
		for _, variant := range []string{"eps", "tau"} {
			var cells [2]jsonCell
			for i, mode := range []struct {
				name string
				k    *quad.KDV
			}{{"tile", tiled}, {"perpixel", perPixel}} {
				// Best-of-rounds wall clock: a single render's timing
				// wobbles ±15% with the machine's load and frequency state.
				// The traversal counters are deterministic for a fixed seed
				// (the ledger's bench/… cells pin the 256² ones), so any
				// round's stats are THE stats.
				const cellRounds = 3
				var st quad.RenderStats
				var elapsed time.Duration
				req := quad.Request{Res: res, Eps: eps}
				if variant == "tau" {
					req = quad.Request{Variant: quad.TauKDV, Res: res, Tau: tau}
				}
				for r := 0; r < cellRounds; r++ {
					start := time.Now()
					out, err := mode.k.Render(context.Background(), req)
					if err != nil {
						return err
					}
					if out.Density != nil {
						out.Density.Release()
					} else {
						out.Hot.Release()
					}
					st = out.Stats
					if d := time.Since(start); r == 0 || d < elapsed {
						elapsed = d
					}
				}
				px := res.W * res.H
				cells[i] = jsonCell{
					Variant:        variant,
					Res:            res.String(),
					Mode:           mode.name,
					ElapsedMS:      float64(elapsed.Microseconds()) / 1e3,
					NsPerPixel:     float64(elapsed.Nanoseconds()) / float64(px),
					NodesPerPixel:  st.NodesPerPixel(),
					NodesEvaluated: st.NodesEvaluated,
					SharedEvals:    st.SharedNodeEvals,
					LeafScans:      st.LeafScans,
					Tiles:          st.Tiles,
					TilesDecided:   st.TilesDecided,
				}
				fmt.Printf("%-4s %-9s %-9s %10.1f ms  %8.1f ns/px  %7.2f nodes/px\n",
					variant, res, mode.name, cells[i].ElapsedMS, cells[i].NsPerPixel, cells[i].NodesPerPixel)
			}
			key := fmt.Sprintf("%s/%s", variant, res)
			if cells[0].ElapsedMS > 0 {
				rep.Speedups[key] = cells[1].ElapsedMS / cells[0].ElapsedMS
			}
			if cells[0].NodesEvaluated > 0 {
				rep.NodeReductions[key] = float64(cells[1].NodesEvaluated) / float64(cells[0].NodesEvaluated)
			}
			rep.Cells = append(rep.Cells, cells[:]...)
		}
	}
	big := quad.Resolution{W: 512, H: 512}
	tro, err := measureTracingOverhead(tiled, big, eps, overheadPairs)
	if err != nil {
		return err
	}
	rep.TracingOverhead = tro
	fmt.Printf("tracing overhead @ %s: untraced %.1f ms, traced %+.2f%% (spread %.2f%%)\n",
		tro.Res, tro.BareMS, tro.DeltaPct, tro.SpreadPct)
	ts, err := measureTileServing(pts, workers, eps)
	if err != nil {
		return err
	}
	rep.TileServing = ts
	fmt.Printf("tile serving @ %d×%d²: cold %.1f ms, disk %.1f ms (%.0fx), memory %.1f ms (%.0fx)\n",
		ts.Tiles, ts.TileSize, ts.ColdBuildMS, ts.WarmDiskMS, ts.DiskSpeedup, ts.WarmMemoryMS, ts.MemorySpeedup)
	ao, err := measureAuditOverhead(tiled, big, eps, overheadPairs)
	if err != nil {
		return err
	}
	rep.AuditOverhead = ao
	fmt.Printf("audit overhead @ %s: unaudited %.1f ms, hook at %g%% %+.2f%% (spread %.2f%%)\n",
		ao.Res, ao.BareMS, auditFraction*100, ao.DeltaPct, ao.SpreadPct)

	if err := writeJSON(path, &rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return checkReport(os.Stdout, &rep)
}

// writeJSON writes v pretty-printed with a trailing newline.
func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
