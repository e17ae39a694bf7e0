package quad

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/engine"
)

// slowTiledKDV builds a KDV whose tile-shared renders are slow enough to
// cancel mid-tile: MinMax bounds (the loosest, so refinement is deep) over
// a large crime analogue, with tiles so large that the raster decomposes
// into exactly one tile per worker — between-tile polling alone could then
// only observe cancellation after a worker finishes its whole tile.
func slowTiledKDV(t *testing.T, n, tile, workers int, opts ...Option) *KDV {
	t.Helper()
	pts, err := dataset.Generate("crime", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(pts.Coords, pts.Dim,
		append([]Option{
			WithMethod(MethodMinMax),
			WithTileSize(tile),
			WithWorkers(workers),
		}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime helpers), failing after a deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d now, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRenderCancelMidTileNoLeak is the tile-shared analogue of the scan
// path's cancellation test: with one 64×64 tile per worker, a prompt return
// is only possible if workers poll ctx inside tiles. The KDV's counting
// pool (scratchLive) then proves every worker returned its pooled scratch —
// the resource-leak half of the guarantee.
func TestRenderCancelMidTileNoLeak(t *testing.T) {
	k := slowTiledKDV(t, 20000, 64, 4)
	res := Resolution{W: 128, H: 128}
	const eps = 0.001

	start := time.Now()
	if _, err := k.RenderEps(res, eps); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if live := k.scratchLive.Load(); live != 0 {
		t.Fatalf("after full render: %d render scratches still checked out", live)
	}
	if full < 30*time.Millisecond {
		t.Skipf("full render too fast to measure mid-tile cancellation (%s)", full)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	r, err := k.Render(ctx, Request{Res: res, Eps: eps})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Density != nil {
		t.Error("cancelled render returned a map")
	}
	if elapsed > full/2 {
		t.Errorf("cancelled render took %s of a %s render — tile interior did not poll ctx", elapsed, full)
	}
	if live := k.scratchLive.Load(); live != 0 {
		t.Errorf("after cancelled render: %d render scratches still checked out", live)
	}
	waitGoroutines(t, base)
}

// TestRenderTauCancelMidTileNoLeak covers the τKDV tile runner: cancelled
// mid-render it must return ctx.Err(), return all pooled scratch, and leave
// no worker goroutines behind.
func TestRenderTauCancelMidTileNoLeak(t *testing.T) {
	k := slowTiledKDV(t, 20000, 64, 4)
	res := Resolution{W: 128, H: 128}

	// A τ near the raster's interior density keeps most tiles undecided, so
	// per-pixel refinement (the cancellable part) dominates.
	mid, err := k.Density([]float64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := k.RenderTau(res, mid); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 30*time.Millisecond {
		t.Skipf("full render too fast to measure mid-tile cancellation (%s)", full)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	r, err := k.Render(ctx, Request{Variant: TauKDV, Res: res, Tau: mid})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Hot != nil {
		t.Error("cancelled render returned a map")
	}
	if live := k.scratchLive.Load(); live != 0 {
		t.Errorf("after cancelled render: %d render scratches still checked out", live)
	}
	waitGoroutines(t, base)
}

// TestRenderCancelOneTileWaitingHelpers cancels a one-tile render while
// its leader is still probing the tile and the other three workers wait
// for the probe to publish sub-tiles. The leader is held inside its probe
// by the KDV's frontier pool, whose New blocks; the helpers must still
// return on cancellation without it. Once the leader is let go, the render
// returns context.Canceled with every scratch back in its pool and no
// goroutine left behind.
func TestRenderCancelOneTileWaitingHelpers(t *testing.T) {
	k := slowTiledKDV(t, 2000, 16, 4)
	probing, resume := make(chan struct{}), make(chan struct{})
	k.frontiers.New = func() any {
		close(probing)
		<-resume
		return new(engine.FlatFrontier)
	}
	release := sync.OnceFunc(func() { close(resume) })
	defer release() // a failed check must not leave the leader blocked
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		dm  *DensityMap
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := k.Render(ctx, Request{Res: Resolution{W: 16, H: 16}, Eps: 0.01})
		done <- outcome{r.Density, err}
	}()
	<-probing
	waitParked(t, 3)
	cancel()
	waitParked(t, 0)
	select {
	case o := <-done:
		t.Fatalf("render returned (%v) while its leader was still probing", o.err)
	default:
	}
	release()
	o := <-done
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", o.err)
	}
	if o.dm != nil {
		t.Error("cancelled render returned a map")
	}
	if live := k.scratchLive.Load(); live != 0 {
		t.Errorf("after cancelled render: %d render scratches still checked out", live)
	}
	waitGoroutines(t, base)
}

// waitParked polls until exactly n goroutines wait inside the render
// scheduler for a probe to publish, failing after a deadline.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(2 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*tileSched).next") {
				parked++
			}
		}
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers wait for a probe, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}
