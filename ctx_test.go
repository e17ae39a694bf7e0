package quad_test

import (
	"context"
	"errors"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
)

// slowKDV builds a KDV whose full-raster renders take long enough that a
// prompt cancellation is clearly distinguishable from running to
// completion (MethodExact: every pixel is an O(n) scan).
func slowKDV(t *testing.T, n int) *quad.KDV {
	t.Helper()
	pts, err := dataset.Generate("crime", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := quad.New(pts.Coords, pts.Dim, quad.WithMethod(quad.MethodExact))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRenderEpsCtxCancelPromptly is the acceptance check for the
// cancellable pipeline: cancelling mid-render returns ctx.Err() well
// before full-raster time. The bound is self-calibrating — a full render
// is timed first, then a render cancelled at a small fraction of that time
// must return in well under half of it (one row of work is T/48 here, so
// the margin is wide on both sides).
func TestRenderEpsCtxCancelPromptly(t *testing.T) {
	k := slowKDV(t, 10000)
	res := quad.Resolution{W: 48, H: 48}

	start := time.Now()
	if _, err := k.RenderEps(res, 0.05); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 20*time.Millisecond {
		t.Skipf("full render too fast to measure cancellation (%s)", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	r, err := k.Render(ctx, quad.Request{Res: res, Eps: 0.05})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Density != nil {
		t.Error("cancelled render returned a map")
	}
	if elapsed > full/2 {
		t.Errorf("cancelled render took %s, full render %s — cancellation not prompt", elapsed, full)
	}
}

func TestRenderCtxAlreadyCancelled(t *testing.T) {
	k := slowKDV(t, 2000)
	res := quad.Resolution{W: 16, H: 16}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, req := range []quad.Request{
		{Res: res, Eps: 0.05},
		{Variant: quad.TauKDV, Res: res, Tau: 0.01},
		{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.05},
		{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.05, Emit: func(quad.Snapshot) bool { return true }},
	} {
		if r, err := k.Render(ctx, req); !errors.Is(err, context.Canceled) || r.Density != nil || r.Hot != nil {
			t.Errorf("%s render (emit %v): err = %v, want Canceled and no map", req.Variant, req.Emit != nil, err)
		}
	}
	if _, _, err := k.ThresholdStatsCtx(ctx, res, 1, 0.05); !errors.Is(err, context.Canceled) {
		t.Errorf("ThresholdStatsCtx err = %v, want Canceled", err)
	}
}

// TestRenderCtxDeadline exercises the deadline form on a multi-worker
// render: an expired deadline must surface as DeadlineExceeded from the
// worker pool.
func TestRenderCtxDeadline(t *testing.T) {
	pts, err := dataset.Generate("crime", 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := quad.New(pts.Coords, pts.Dim, quad.WithMethod(quad.MethodExact), quad.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = k.Render(ctx, quad.Request{Res: quad.Resolution{W: 64, H: 64}, Eps: 0.05})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestThresholdStatsCtxDeadline pins ThresholdStatsCtx's cancellation
// inside a sample row: on a one-row raster whose row of exact scans takes
// seconds, a 50 ms deadline must stop it promptly with DeadlineExceeded.
func TestThresholdStatsCtxDeadline(t *testing.T) {
	k := slowKDV(t, 10000)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := k.ThresholdStatsCtx(ctx, quad.Resolution{W: 1 << 16, H: 1}, 1, 0.05)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("ThresholdStatsCtx took %s under a 50ms deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestRenderProgressiveWindow verifies the pan/zoom window reaches the
// progressive renderer: run to completion, its raster must be pixel-equal
// to the plain windowed render (identical exact evaluations, different
// order).
func TestRenderProgressiveWindow(t *testing.T) {
	k := slowKDV(t, 2000)
	res := quad.Resolution{W: 24, H: 16}
	win := quad.Window{MinX: 10, MinY: 10, MaxX: 40, MaxY: 40}

	r, err := k.Render(context.Background(), quad.Request{Res: res, Window: win, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := k.Render(context.Background(), quad.Request{Variant: quad.ProgressiveKDV, Res: res, Window: win, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Complete {
		t.Fatal("unbudgeted progressive render did not complete")
	}
	want, got := r.Density, pr.Density
	if got.WindowMin != want.WindowMin || got.WindowMax != want.WindowMax {
		t.Errorf("window mismatch: progressive %v..%v, render %v..%v",
			got.WindowMin, got.WindowMax, want.WindowMin, want.WindowMax)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("pixel %d: progressive %g, render %g", i, got.Values[i], want.Values[i])
		}
	}
}

// TestRenderProgressiveCtxBudgetVsCancel pins the two stop conditions
// apart: budget expiry returns a partial result with a nil error,
// cancellation returns ctx.Err() and no result.
func TestRenderProgressiveCtxBudgetVsCancel(t *testing.T) {
	k := slowKDV(t, 10000)
	res := quad.Resolution{W: 48, H: 48}

	req := quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.05, Budget: 30 * time.Millisecond}
	pr, err := k.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Complete {
		t.Skip("budgeted render completed; machine too fast for this check")
	}
	if pr.Evaluated < 1 {
		t.Error("budget expiry returned no evaluated pixels")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	req.Budget = 0
	if r, err := k.Render(ctx, req); !errors.Is(err, context.Canceled) || r.Density != nil {
		t.Errorf("err = %v, want Canceled and no map", err)
	}
}
