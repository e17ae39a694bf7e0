package quad_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/harness"
)

// TestFlatRenderWorkersDeterminism pins the flat engine's scheduling
// independence: the same scene rendered with 1, 3, and 8 workers is
// bit-identical in its εKDV values and τKDV masks and in every RenderStats
// work counter (the bench's count gates and the X-KDV-Stats-* headers read
// them), and so is one default-worker KDV rendered from several goroutines
// at once, which shares its engine and scratch pools between them. So is a
// one-tile raster at 1, 2 and 8 workers, whose sub-tiles are the only work
// to share: over the whole extent its tile refines pixels from the root,
// over a narrow window it warm-starts them from sub-tile frontiers. It also
// pins the worker count: min(workers, units), where a unit is a 4×4
// sub-tile, with quad.New defaulting to GOMAXPROCS and the paper harness to
// one. GOMAXPROCS is raised to 4 for the test so the default runs several
// workers on any host. make race runs it with -race -count=10.
func TestFlatRenderWorkersDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pts := dataset.Crime(6000, 7)
	res := quad.Resolution{W: 64, H: 48}
	const eps, tau = 0.05, 0.001
	build := func(opts ...quad.Option) *quad.KDV {
		k, err := quad.New(pts.Coords, 2, append([]quad.Option{quad.WithTileSize(16)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	type result struct {
		vals               []float64
		hot                []bool
		epsStats, tauStats quad.RenderStats
	}
	renderIn := func(k *quad.KDV, res quad.Resolution, win quad.Window) (result, error) {
		er, err := k.Render(context.Background(), quad.Request{Res: res, Window: win, Eps: eps})
		if err != nil {
			return result{}, err
		}
		tr, err := k.Render(context.Background(), quad.Request{Variant: quad.TauKDV, Res: res, Window: win, Tau: tau})
		if err != nil {
			return result{}, err
		}
		return result{er.Density.Values, tr.Hot.Hot, er.Stats, tr.Stats}, nil
	}
	render := func(k *quad.KDV) (result, error) { return renderIn(k, res, quad.Window{}) }
	// work keeps the counters that must not depend on scheduling.
	work := func(st quad.RenderStats) quad.RenderStats {
		st.Workers, st.Elapsed, st.SharedElapsed = 0, 0, 0
		return st
	}
	diff := func(got, want result) string {
		if i, ok := sameBits(want.vals, got.vals); !ok {
			return fmt.Sprintf("εKDV value differs at pixel %d", i)
		}
		for i := range want.hot {
			if want.hot[i] != got.hot[i] {
				return fmt.Sprintf("τKDV mask differs at pixel %d", i)
			}
		}
		if work(got.epsStats) != work(want.epsStats) {
			return fmt.Sprintf("εKDV work counters %+v, want %+v", work(got.epsStats), work(want.epsStats))
		}
		if work(got.tauStats) != work(want.tauStats) {
			return fmt.Sprintf("τKDV work counters %+v, want %+v", work(got.tauStats), work(want.tauStats))
		}
		return ""
	}
	checkWorkers := func(tag string, r result, want int) {
		t.Helper()
		if r.epsStats.Workers != want || r.tauStats.Workers != want {
			t.Errorf("%s: Stats.Workers = %d (εKDV), %d (τKDV), want %d", tag, r.epsStats.Workers, r.tauStats.Workers, want)
		}
	}

	base, err := render(build(quad.WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if base.epsStats.Tiles != 12 || base.epsStats.NodesEvaluated == 0 {
		t.Fatalf("base render stats implausible: %+v", base.epsStats)
	}
	const units = 12 * 16 // twelve 16×16 tiles of sixteen 4×4 sub-tiles
	checkWorkers("workers=1", base, 1)
	for _, w := range []int{3, 8} {
		r, err := render(build(quad.WithWorkers(w)))
		if err != nil {
			t.Fatal(err)
		}
		if d := diff(r, base); d != "" {
			t.Fatalf("workers=%d vs workers=1: %s", w, d)
		}
		checkWorkers(fmt.Sprintf("workers=%d", w), r, min(w, units))
	}

	one := quad.Resolution{W: 16, H: 16}
	full, err := build().DefaultWindow()
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := (full.MinX+full.MaxX)/2, (full.MinY+full.MaxY)/2
	hw, hh := (full.MaxX-full.MinX)/64, (full.MaxY-full.MinY)/64
	for _, win := range []quad.Window{{}, {MinX: cx - hw, MinY: cy - hh, MaxX: cx + hw, MaxY: cy + hh}} {
		var oneBase result
		for i, w := range []int{1, 2, 8} {
			r, err := renderIn(build(quad.WithWorkers(w)), one, win)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("one tile over %+v, workers=%d", win, w)
			if i == 0 {
				oneBase = r
				if r.epsStats.Tiles != 1 || r.tauStats.Tiles != 1 {
					t.Fatalf("%s: rendered %d and %d tiles", tag, r.epsStats.Tiles, r.tauStats.Tiles)
				}
			} else if d := diff(r, oneBase); d != "" {
				t.Fatalf("%s vs workers=1: %s", tag, d)
			}
			checkWorkers(tag, r, min(w, 16))
		}
	}

	shared := build()
	const goroutines = 4
	results := make([]result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = render(shared)
		}()
	}
	wg.Wait()
	for g, r := range results {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if d := diff(r, base); d != "" {
			t.Fatalf("concurrent default-worker render %d vs workers=1: %s", g, d)
		}
		checkWorkers("default workers", r, min(runtime.GOMAXPROCS(0), units))
	}

	ds := &harness.DS{Name: "crime", Pts: pts, N: pts.Len()}
	hk, err := ds.Build(quad.Gaussian, quad.MethodQuadratic, eps)
	if err != nil {
		t.Fatal(err)
	}
	r, err := render(hk)
	if err != nil {
		t.Fatal(err)
	}
	if d := diff(r, base); d != "" {
		t.Fatalf("harness DS.Build vs workers=1: %s", d)
	}
	checkWorkers("harness DS.Build", r, 1)
}
