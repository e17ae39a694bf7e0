package main

import (
	"strings"
	"testing"
)

// cleanReport holds every section checkReport reads, each inside its claim.
func cleanReport() *jsonReport {
	return &jsonReport{
		TracingOverhead: &overhead{Res: "512x512", Pairs: 10, DeltaPct: 0.3, SpreadPct: 0.8},
		TileServing:     &tileServing{ColdBuildMS: 9000, WarmDiskMS: 0.5},
		AuditOverhead:   &overhead{Res: "512x512", Pairs: 10, DeltaPct: -0.2, SpreadPct: 1.1, Audited: 10},
	}
}

// TestCheckReport plants each way a report can break a claim and checks the
// verdict checkReport prints for it and whether it fails the run.
func TestCheckReport(t *testing.T) {
	cases := []struct {
		name    string
		plant   func(*jsonReport)
		claim   string
		verdict string
	}{
		{"disk_speedup_9x", func(r *jsonReport) { r.TileServing.ColdBuildMS, r.TileServing.WarmDiskMS = 90, 10 },
			"tile serving", "FAIL"},
		{"tile_section_missing", func(r *jsonReport) { r.TileServing = nil }, "tile serving", "FAIL"},
		{"zero_tile_timings", func(r *jsonReport) { r.TileServing.ColdBuildMS, r.TileServing.WarmDiskMS = 0, 0 },
			"tile serving", "FAIL"},
		{"traced_delta_over_budget", func(r *jsonReport) { r.TracingOverhead.DeltaPct, r.TracingOverhead.SpreadPct = 3, 1 },
			"tracing overhead", "FAIL"},
		{"audit_delta_over_budget", func(r *jsonReport) { r.AuditOverhead.DeltaPct, r.AuditOverhead.SpreadPct = 3, 1 },
			"audit overhead, every render audited", "FAIL"},
		{"delta_inside_spread", func(r *jsonReport) { r.TracingOverhead.DeltaPct, r.TracingOverhead.SpreadPct = 3, 5 },
			"tracing overhead", "unresolved"},
		{"clean_report", func(*jsonReport) {}, "tile serving", "pass"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := cleanReport()
			tc.plant(rep)
			var out strings.Builder
			err := checkReport(&out, rep)
			var line string
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.Contains(l, " "+tc.claim+":") {
					line = l
				}
			}
			if got := strings.Fields(line + " -")[0]; got != tc.verdict {
				t.Errorf("%s verdict %q, want %q:\n%s", tc.claim, got, tc.verdict, out.String())
			}
			if fails := tc.verdict == "FAIL"; (err != nil) != fails {
				t.Errorf("checkReport returned %v, want an error: %v\n%s", err, fails, out.String())
			}
			if tc.verdict == "pass" && strings.Count(out.String(), "pass ") != 3 {
				t.Errorf("want all three claims to pass:\n%s", out.String())
			}
			if n := strings.Count(out.String(), "FAIL"); tc.verdict != "FAIL" && n > 0 {
				t.Errorf("%d other claims failed:\n%s", n, out.String())
			}
		})
	}
}

// TestQuantile pins the interpolation the overhead spreads are read with.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of {1, 2} = %g, want 1.5", got)
	}
}
