package audit_test

import (
	"log/slog"
	"sort"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/audit"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/telemetry"
)

func testKDV(t *testing.T, opts ...quad.Option) *quad.KDV {
	t.Helper()
	pts, err := dataset.Generate("crime", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	k, err := quad.New(dataset.First2D(pts).Coords, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// drain waits for the auditor's queue to empty.
func drain(t *testing.T, a *audit.Auditor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auditor did not drain: %d pending", a.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// sampleEps builds an eps job from a density map, sampling every index in
// idx with the render's own grid mapping.
func sampleEps(t *testing.T, k *quad.KDV, dm *quad.DensityMap, idx []int, eps float64) audit.Job {
	t.Helper()
	g, err := grid.New(grid.Resolution{W: dm.Res.W, H: dm.Res.H},
		geom.Rect{Min: dm.WindowMin[:], Max: dm.WindowMax[:]})
	if err != nil {
		t.Fatal(err)
	}
	job := audit.Job{
		Endpoint: "render",
		Dataset:  "crime",
		Method:   "quad",
		Kind:     audit.KindEps,
		Eps:      eps,
		TraceID:  "0123456789abcdef0123456789abcdef",
		Exact: func(q []float64) float64 {
			v, err := k.Density(q)
			if err != nil {
				t.Errorf("oracle density: %v", err)
			}
			return v
		},
	}
	q := make([]float64, 2)
	for _, i := range idx {
		x, y := i%dm.Res.W, i/dm.Res.W
		g.Query(x, y, q)
		job.Samples = append(job.Samples, audit.Sample{
			X: x, Y: y, Q: [2]float64{q[0], q[1]}, Value: dm.Values[i],
		})
	}
	return job
}

func TestHonestEpsRenderPasses(t *testing.T) {
	k := testKDV(t)
	const eps = 0.05
	dm, err := k.RenderEps(quad.Resolution{W: 32, H: 24}, eps)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	a := audit.New(audit.Config{Fraction: 1, Pixels: 16, Registry: reg, HardFail: true,
		Logger: slog.Default()})
	defer a.Close()

	idx := a.SamplePixels(len(dm.Values))
	if len(idx) != 16 {
		t.Fatalf("sampled %d pixels, want 16", len(idx))
	}
	if !a.Submit(sampleEps(t, k, dm, idx, eps)) {
		t.Fatal("submit rejected")
	}
	drain(t, a)
	if got := reg.Counter("kdv_audit_checks_total", "", telemetry.L("endpoint", "render")).Value(); got != 1 {
		t.Errorf("checks = %d, want 1", got)
	}
	if got := reg.Counter("kdv_audit_pixels_total", "", telemetry.L("endpoint", "render")).Value(); got != 16 {
		t.Errorf("pixels = %d, want 16", got)
	}
	if v := reg.Counter("kdv_audit_violations_total", "",
		telemetry.L("endpoint", "render"), telemetry.L("kind", "eps")).Value(); v != 0 {
		t.Errorf("honest render produced %d violations", v)
	}
	if a.HardFailed() {
		t.Error("honest render latched hard-fail")
	}
	st := a.State()
	if !st.Enabled || st.MaxRelErrRatio > 1 {
		t.Errorf("state = %+v", st)
	}
}

// TestExactRenderPasses pins the ε=0 path: exact renders are audited under
// the stand-in relative tolerance, not bit equality.
func TestExactRenderPasses(t *testing.T) {
	k := testKDV(t, quad.WithMethod(quad.MethodExact))
	dm, err := k.RenderEps(quad.Resolution{W: 16, H: 12}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	a := audit.New(audit.Config{Fraction: 1, Pixels: 8, Registry: reg, HardFail: true})
	defer a.Close()
	job := sampleEps(t, k, dm, a.SamplePixels(len(dm.Values)), 0)
	job.Method = "exact"
	a.Submit(job)
	drain(t, a)
	if a.HardFailed() {
		t.Errorf("exact render flagged: %+v", a.State().RecentViolations)
	}
}

// TestPlantedEpsViolationCaught is the mutation-style self-test: a
// deliberately over-reported density must be flagged, counted, logged with
// its trace and pixel, and must fire hard-fail mode.
func TestPlantedEpsViolationCaught(t *testing.T) {
	k := testKDV(t)
	const eps = 0.05
	dm, err := k.RenderEps(quad.Resolution{W: 32, H: 24}, eps)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var got []audit.Violation
	a := audit.New(audit.Config{
		Fraction: 1, Pixels: 8, Registry: reg, HardFail: true,
		OnViolation: func(v audit.Violation) { got = append(got, v) },
	})
	defer a.Close()

	idx := a.SamplePixels(len(dm.Values))
	job := sampleEps(t, k, dm, idx, eps)
	// Plant the bug: over-report one sampled pixel well past the ε band.
	job.Samples[3].Value *= 1 + 4*eps
	planted := job.Samples[3]
	a.Submit(job)
	drain(t, a)

	if v := reg.Counter("kdv_audit_violations_total", "",
		telemetry.L("endpoint", "render"), telemetry.L("kind", "eps")).Value(); v != 1 {
		t.Fatalf("violations = %d, want 1", v)
	}
	if !a.HardFailed() {
		t.Fatal("planted violation did not fire hard-fail mode")
	}
	if len(got) != 1 {
		t.Fatalf("OnViolation fired %d times, want 1", len(got))
	}
	v := got[0]
	if v.X != planted.X || v.Y != planted.Y {
		t.Errorf("violation pixel (%d,%d), want (%d,%d)", v.X, v.Y, planted.X, planted.Y)
	}
	if v.TraceID != "0123456789abcdef0123456789abcdef" {
		t.Errorf("violation trace = %q", v.TraceID)
	}
	if v.RelErr < 3*eps {
		t.Errorf("rel err %g implausibly small for a %g over-report", v.RelErr, 4*eps)
	}
	st := a.State()
	if !st.HardFailed || len(st.RecentViolations) != 1 {
		t.Errorf("state = %+v", st)
	}
	if st.MaxRelErrRatio <= 1 {
		t.Errorf("max ratio %g should exceed 1 after a violation", st.MaxRelErrRatio)
	}
}

// TestTailPixelHeldToEps plants a tail pixel that the former absolute
// slack, 1e-12 × the raster's maximum, excused: exact F below 1e-10 of the
// maximum, served at (1 + 2ε)·F. The slack is now a few ulps of F itself,
// so the pixel is a violation like any other pixel twice past ε, while a
// tail pixel inside ε still passes.
func TestTailPixelHeldToEps(t *testing.T) {
	const eps, rasterMax = 0.01, 1.0
	const exact = 5e-11 * rasterMax
	over, within := (1+2*eps)*exact, (1+eps/2)*exact
	if over-exact > eps*exact+1e-12*rasterMax {
		t.Fatal("the planted pixel is not one the absolute slack passed")
	}
	var got []audit.Violation
	a := audit.New(audit.Config{Fraction: 1, Registry: telemetry.NewRegistry(),
		OnViolation: func(v audit.Violation) { got = append(got, v) }})
	defer a.Close()
	a.Submit(audit.Job{
		Endpoint: "tile", Dataset: "crime", Method: "quad", Kind: audit.KindEps, Eps: eps,
		Samples: []audit.Sample{{X: 1, Y: 2, Value: within}, {X: 3, Y: 4, Value: over}},
		Exact:   func([]float64) float64 { return exact },
	})
	drain(t, a)
	if len(got) != 1 || got[0].X != 3 || got[0].Y != 4 {
		t.Fatalf("violations %+v, want only the pixel served at (1+2ε)·F", got)
	}
}

func TestTauAuditAndPlantedFlip(t *testing.T) {
	k := testKDV(t)
	res := quad.Resolution{W: 24, H: 16}
	ref, err := k.RenderEps(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	// τ at the raster median-ish so both classes are populated.
	sorted := append([]float64(nil), ref.Values...)
	sort.Float64s(sorted)
	tau := sorted[len(sorted)/2]
	hm, err := k.RenderTau(res, tau)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(grid.Resolution{W: res.W, H: res.H},
		geom.Rect{Min: hm.WindowMin[:], Max: hm.WindowMax[:]})
	if err != nil {
		t.Fatal(err)
	}
	mkJob := func() audit.Job {
		job := audit.Job{
			Endpoint: "hotspots", Dataset: "crime", Method: "quad",
			Kind: audit.KindTau, Tau: tau,
			Exact: func(q []float64) float64 {
				v, err := k.Density(q)
				if err != nil {
					t.Errorf("oracle density: %v", err)
				}
				return v
			},
		}
		q := make([]float64, 2)
		for i := 0; i < len(hm.Hot); i += 37 {
			x, y := i%res.W, i/res.W
			g.Query(x, y, q)
			job.Samples = append(job.Samples, audit.Sample{
				X: x, Y: y, Q: [2]float64{q[0], q[1]}, Hot: hm.Hot[i],
			})
		}
		return job
	}

	reg := telemetry.NewRegistry()
	a := audit.New(audit.Config{Fraction: 1, Registry: reg, HardFail: true})
	defer a.Close()
	a.Submit(mkJob())
	drain(t, a)
	if a.HardFailed() {
		t.Fatalf("honest τ map flagged: %+v", a.State().RecentViolations)
	}

	// Plant a flipped classification on a pixel far from τ.
	job := mkJob()
	flipped := false
	q := make([]float64, 2)
	for i := range job.Samples {
		s := &job.Samples[i]
		q[0], q[1] = s.Q[0], s.Q[1]
		exact, _ := k.Density(q)
		if exact > 1.5*tau || exact < 0.5*tau {
			s.Hot = !s.Hot
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no sample far enough from tau to plant a flip")
	}
	a.Submit(job)
	drain(t, a)
	if v := reg.Counter("kdv_audit_violations_total", "",
		telemetry.L("endpoint", "hotspots"), telemetry.L("kind", "tau")).Value(); v != 1 {
		t.Fatalf("tau violations = %d, want 1", v)
	}
	if !a.HardFailed() {
		t.Fatal("planted τ flip did not fire hard-fail")
	}
}

func TestBudgetDropsNeverBlock(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := audit.New(audit.Config{Fraction: 1, Budget: 1, Workers: 1, Registry: reg})
	defer a.Close()
	gate := make(chan struct{})
	slow := audit.Job{
		Endpoint: "render", Kind: audit.KindEps, Eps: 1,
		Samples: []audit.Sample{{Value: 0}},
		Exact:   func([]float64) float64 { <-gate; return 0 },
	}
	// First job occupies the worker, second fills the queue, the rest must
	// be dropped without blocking.
	accepted := 0
	for i := 0; i < 10; i++ {
		if a.Submit(slow) {
			accepted++
		}
	}
	close(gate)
	drain(t, a)
	if accepted > 2 {
		t.Errorf("accepted %d jobs with budget 1", accepted)
	}
	if d := reg.Counter("kdv_audit_dropped_total", "").Value(); d < 8 {
		t.Errorf("dropped = %d, want ≥ 8", d)
	}
}

func TestSamplingAndNilSafety(t *testing.T) {
	a := audit.New(audit.Config{Fraction: 0.5, Pixels: 4, Registry: telemetry.NewRegistry()})
	defer a.Close()
	idx := a.SamplePixels(100)
	if len(idx) != 4 {
		t.Fatalf("sampled %d, want 4", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad sample set %v", idx)
		}
		seen[i] = true
	}
	if got := a.SamplePixels(3); len(got) != 3 {
		t.Fatalf("small raster sample = %v, want all 3", got)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if a.ShouldAudit() {
			hits++
		}
	}
	if hits < 350 || hits > 650 {
		t.Errorf("fraction 0.5 sampled %d/1000", hits)
	}

	var nilA *audit.Auditor
	if nilA.ShouldAudit() || nilA.Submit(audit.Job{}) || nilA.HardFailed() {
		t.Error("nil auditor not a no-op")
	}
	nilA.Skip("zorder")
	nilA.Close()
	if st := nilA.State(); st.Enabled {
		t.Error("nil auditor state enabled")
	}
}

func TestSkipCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := audit.New(audit.Config{Fraction: 1, Registry: reg})
	defer a.Close()
	a.Skip("zorder")
	a.Skip("zorder")
	a.Skip("degraded")
	if got := reg.Counter("kdv_audit_skipped_total", "", telemetry.L("reason", "zorder")).Value(); got != 2 {
		t.Errorf("zorder skips = %d, want 2", got)
	}
	if got := reg.Counter("kdv_audit_skipped_total", "", telemetry.L("reason", "degraded")).Value(); got != 1 {
		t.Errorf("degraded skips = %d, want 1", got)
	}
}
