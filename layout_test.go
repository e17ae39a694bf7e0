package quad_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/harness"
)

// TestFlatPointerRenderIdentity is the tier-1 face of the engine-layout
// contract: the flat SoA engine renders bit-identically to the pointer
// engine across kernels, bound methods, and tile sizes — εKDV rasters by
// Float64bits, τKDV masks exactly. (cmd/kdvcheck runs the full matrix with
// sharding through internal/conformance; this keeps the core of it in
// plain `go test ./...`.)
func TestFlatPointerRenderIdentity(t *testing.T) {
	pts := dataset.Crime(8000, 7)
	res := quad.Resolution{W: 64, H: 48}
	const eps = 0.05
	const tau = 0.001
	for _, kern := range []quad.Kernel{quad.Gaussian, quad.Epanechnikov} {
		for _, method := range []quad.Method{quad.MethodQuadratic, quad.MethodMinMax, quad.MethodLinear} {
			if method == quad.MethodLinear && kern != quad.Gaussian {
				continue
			}
			for _, ts := range []int{1, 16} {
				opts := []quad.Option{
					quad.WithKernel(kern), quad.WithMethod(method), quad.WithTileSize(ts),
				}
				fl, err := quad.New(pts.Coords, 2, opts...)
				if err != nil {
					t.Fatal(err)
				}
				pt, err := quad.New(pts.Coords, 2, append(opts, quad.WithEngineLayout(quad.LayoutPointer))...)
				if err != nil {
					t.Fatal(err)
				}
				tag := func(v string) string {
					return v + "/" + kern.String() + "/" + method.String()
				}
				fdm, err := fl.RenderEps(res, eps)
				if err != nil {
					t.Fatal(err)
				}
				pdm, err := pt.RenderEps(res, eps)
				if err != nil {
					t.Fatal(err)
				}
				if i, ok := sameBits(fdm.Values, pdm.Values); !ok {
					t.Fatalf("%s ts=%d: flat differs from pointer at pixel %d: %x vs %x", tag("eps"), ts,
						i, math.Float64bits(fdm.Values[i]), math.Float64bits(pdm.Values[i]))
				}
				fhm, err := fl.RenderTau(res, tau)
				if err != nil {
					t.Fatal(err)
				}
				phm, err := pt.RenderTau(res, tau)
				if err != nil {
					t.Fatal(err)
				}
				for i := range fhm.Hot {
					if fhm.Hot[i] != phm.Hot[i] {
						t.Fatalf("%s ts=%d: flat mask differs from pointer at pixel %d", tag("tau"), ts, i)
					}
				}
			}
		}
	}
}

// TestFlatRenderWorkersDeterminism pins the flat engine's scheduling
// independence: the same scene rendered with 1, 3, and 8 workers is
// bit-identical in its εKDV values and τKDV masks and in every RenderStats
// work counter (the bench's count gates and the X-KDV-Stats-* headers read
// them), and so is one default-worker KDV rendered from several goroutines
// at once, which shares its engine and scratch pools between them. It also
// pins the worker defaults: quad.New uses GOMAXPROCS, the paper harness
// one. GOMAXPROCS is raised to 4 for the test so the default runs several
// workers on any host. Run it with -race -count=10 after touching the
// render scheduler.
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
	render := func(k *quad.KDV) (result, error) {
		dm, est, err := k.RenderEpsStatsInCtx(context.Background(), res, eps, quad.Window{})
		if err != nil {
			return result{}, err
		}
		hm, tst, err := k.RenderTauStatsInCtx(context.Background(), res, tau, quad.Window{})
		if err != nil {
			return result{}, err
		}
		return result{dm.Values, hm.Hot, est, tst}, nil
	}
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
	tiles := base.epsStats.Tiles
	if tiles != 12 || base.epsStats.NodesEvaluated == 0 {
		t.Fatalf("base render stats implausible: %+v", base.epsStats)
	}
	checkWorkers("workers=1", base, 1)
	for _, w := range []int{3, 8} {
		r, err := render(build(quad.WithWorkers(w)))
		if err != nil {
			t.Fatal(err)
		}
		if d := diff(r, base); d != "" {
			t.Fatalf("workers=%d vs workers=1: %s", w, d)
		}
		checkWorkers(fmt.Sprintf("workers=%d", w), r, min(w, tiles))
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
		checkWorkers("default workers", r, min(runtime.GOMAXPROCS(0), tiles))
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
