package main

import (
	"strings"
	"testing"
)

func baselineReport() *jsonReport {
	return &jsonReport{
		Dataset: "crime",
		Cells: []jsonCell{
			{Variant: "eps", Res: "256x256", Mode: "tile", NsPerPixel: 1000, NodesPerPixel: 8.0},
			{Variant: "eps", Res: "256x256", Mode: "perpixel", NsPerPixel: 4000, NodesPerPixel: 40.0},
			{Variant: "tau", Res: "256x256", Mode: "tile", NsPerPixel: 800, NodesPerPixel: 6.0},
		},
		TracingOverhead: &tracingOverhead{OffDeltaPct: 0.5},
	}
}

// TestCompareAcceptsEquivalentRun: identical numbers (plus noise inside the
// tolerances) must pass.
func TestCompareAcceptsEquivalentRun(t *testing.T) {
	oldRep, newRep := baselineReport(), baselineReport()
	newRep.Cells[0].NsPerPixel *= 1.20    // inside the 25% timing tolerance
	newRep.Cells[0].NodesPerPixel *= 1.04 // inside the 5% work tolerance
	var out strings.Builder
	if n := compareReports(&out, oldRep, newRep, 0, 0); n != 0 {
		t.Fatalf("equivalent run flagged %d regression(s):\n%s", n, out.String())
	}
}

// TestComparePlantedRegressions is the gate's self-test: a planted timing
// regression, a planted traversal-work regression, a lost cell, and a
// blown overhead budget must each be caught.
func TestComparePlantedRegressions(t *testing.T) {
	cases := []struct {
		name  string
		plant func(rep *jsonReport)
		want  string
	}{
		{"timing", func(rep *jsonReport) { rep.Cells[0].NsPerPixel *= 1.50 }, "ns_per_pixel"},
		{"work", func(rep *jsonReport) { rep.Cells[1].NodesPerPixel *= 1.10 }, "nodes_per_pixel"},
		{"lost cell", func(rep *jsonReport) { rep.Cells = rep.Cells[:2] }, "missing from the new report"},
		{"tracing overhead", func(rep *jsonReport) { rep.TracingOverhead.OffDeltaPct = 2.5 }, "tracing disabled-path overhead"},
		{"config mismatch", func(rep *jsonReport) { rep.N = 12345 }, "not comparable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newRep := baselineReport()
			tc.plant(newRep)
			var out strings.Builder
			n := compareReports(&out, baselineReport(), newRep, 0, 0)
			if n == 0 {
				t.Fatalf("planted %s regression not caught:\n%s", tc.name, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("verdicts missing %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestCompareEndToEnd exercises the file-loading path runCompare uses,
// including the non-nil error (→ non-zero exit) on a planted regression.
func TestCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeReport := func(name string, rep *jsonReport) string {
		t.Helper()
		path := dir + "/" + name
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := writeReport("old.json", baselineReport())
	newRep := baselineReport()
	newRep.Cells[2].NodesPerPixel *= 2 // planted regression
	newPath := writeReport("new.json", newRep)
	if err := runCompare(oldPath, oldPath, 0, 0); err != nil {
		t.Fatalf("self-compare: %v", err)
	}
	if err := runCompare(oldPath, newPath, 0, 0); err == nil {
		t.Fatal("planted regression: runCompare returned nil")
	}
}

// gateReport is a baseline that includes the eps/512x512/tile cell the
// -minspeedup gate reads, with elapsed set by the caller.
func gateReport(elapsedMS float64) *jsonReport {
	rep := baselineReport()
	rep.Cells = append(rep.Cells, jsonCell{
		Variant: "eps", Res: "512x512", Mode: "tile",
		ElapsedMS: elapsedMS, NsPerPixel: elapsedMS * 1e6 / (512 * 512), NodesPerPixel: 50,
	})
	return rep
}

// TestCompareTileSpeedupGate covers the -mintilespeedup assertion, a
// within-new-report gate: warm-disk tile serving must beat the cold build
// by the floor; a missing tile_serving section fails (the claim cannot be
// checked); zero leaves the gate off.
func TestCompareTileSpeedupGate(t *testing.T) {
	withTiles := func(coldMS, diskMS float64) *jsonReport {
		rep := baselineReport()
		rep.TileServing = &tileServing{ColdBuildMS: coldMS, WarmDiskMS: diskMS}
		return rep
	}
	cases := []struct {
		name     string
		newRep   *jsonReport
		floor    float64
		wantFail bool
	}{
		{"floor cleared", withTiles(500, 10), 10, false},
		{"floor missed", withTiles(500, 100), 10, true},
		{"section missing", baselineReport(), 10, true},
		{"zero timings", withTiles(0, 0), 10, true},
		{"gate disabled", baselineReport(), 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			n := compareReports(&out, baselineReport(), tc.newRep, 0, tc.floor)
			if got := n > 0; got != tc.wantFail {
				t.Fatalf("regressions = %d, want failure %v:\n%s", n, tc.wantFail, out.String())
			}
			if tc.wantFail && !strings.Contains(out.String(), "tile speedup gate") {
				t.Fatalf("verdicts missing the tile-speedup-gate line:\n%s", out.String())
			}
		})
	}
}

// TestCompareSpeedupGate covers the -minspeedup assertion: a cleared
// floor passes, a missed floor fails, a missing gate cell fails (the
// claim cannot be checked), and minSpeedup=0 leaves the gate off.
func TestCompareSpeedupGate(t *testing.T) {
	cases := []struct {
		name       string
		oldMS      float64
		newRep     *jsonReport
		minSpeedup float64
		wantFail   bool
	}{
		{"floor cleared", 3300, gateReport(2700), 1.2, false},
		{"floor missed", 3300, gateReport(3000), 1.2, true},
		{"gate cell missing", 3300, baselineReport(), 1.2, true},
		{"gate disabled", 3300, gateReport(3300), 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			n := compareReports(&out, gateReport(tc.oldMS), tc.newRep, tc.minSpeedup, 0)
			if got := n > 0; got != tc.wantFail {
				t.Fatalf("regressions = %d, want failure %v:\n%s", n, tc.wantFail, out.String())
			}
			if tc.wantFail && !strings.Contains(out.String(), "speedup gate") {
				t.Fatalf("verdicts missing the speedup-gate line:\n%s", out.String())
			}
		})
	}
}
