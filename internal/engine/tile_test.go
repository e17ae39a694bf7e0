package engine

import (
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kernel"
)

// tileQueries samples query points spread over a tile rectangle, including
// its corners.
func tileQueries(rng *rand.Rand, tile geom.Rect, n int) [][]float64 {
	qs := [][]float64{
		{tile.Min[0], tile.Min[1]},
		{tile.Max[0], tile.Min[1]},
		{tile.Min[0], tile.Max[1]},
		{tile.Max[0], tile.Max[1]},
	}
	for i := 0; i < n; i++ {
		qs = append(qs, []float64{
			tile.Min[0] + rng.Float64()*(tile.Max[0]-tile.Min[0]),
			tile.Min[1] + rng.Float64()*(tile.Max[1]-tile.Min[1]),
		})
	}
	return qs
}

func testTiles() []geom.Rect {
	return []geom.Rect{
		{Min: []float64{1, 1}, Max: []float64{3, 3}},     // inside a cluster band
		{Min: []float64{7, -2}, Max: []float64{9, -1}},   // off the data
		{Min: []float64{-1, -1}, Max: []float64{16, 11}}, // spanning everything
		{Min: []float64{5, 5}, Max: []float64{5.1, 5.1}}, // nearly a point
	}
}

func TestEvalEpsFromMeetsGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := clusteredPoints(rng, 400)
	for _, m := range []bounds.Method{bounds.Quadratic, bounds.Linear, bounds.MinMax} {
		e := buildEngine(t, pts, kernel.Gaussian, 0.5, m)
		te := NewFlatTileEngine(e.Clone())
		for _, eps := range []float64{0.3, 0.05, 0.005} {
			for ti, tile := range testTiles() {
				var f FlatFrontier
				te.BuildFrontierEps(tile, eps, &f)
				for qi, q := range tileQueries(rng, tile, 20) {
					got, _ := te.EvalEpsFrom(&f, q, eps)
					exact := e.Exact(q)
					if diff := got - exact; diff > eps*exact || -diff > eps*exact {
						t.Fatalf("method %v eps=%g tile %d query %d (%v): got %g, exact %g, rel err %g",
							m, eps, ti, qi, q, got, exact, (got-exact)/exact)
					}
				}
			}
		}
	}
}

func TestEvalTauFromMatchesPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := clusteredPoints(rng, 400)
	e := buildEngine(t, pts, kernel.Gaussian, 0.5, bounds.Quadratic)
	te := NewFlatTileEngine(e.Clone())

	// Probe τ values around the density range so tiles land on all three
	// regimes: decided-hot, decided-cold, and mixed.
	var lo, hi float64 = 1e300, 0
	for _, tile := range testTiles() {
		for _, q := range tileQueries(rng, tile, 10) {
			v := e.Exact(q)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	for _, frac := range []float64{0.01, 0.3, 0.9} {
		tau := lo + frac*(hi-lo)
		for ti, tile := range testTiles() {
			var f FlatFrontier
			te.BuildFrontierTau(tile, tau, &f)
			for qi, q := range tileQueries(rng, tile, 30) {
				got, _ := te.EvalTauFrom(&f, q, tau)
				want, _ := e.EvalTau(q, tau)
				if got != want {
					t.Fatalf("tau=%g tile %d query %d (%v): tile-shared %v, per-pixel %v (exact %g)",
						tau, ti, qi, q, got, want, e.Exact(q))
				}
			}
		}
	}
}

func TestFrontierInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := clusteredPoints(rng, 300)
	e := buildEngine(t, pts, kernel.Gaussian, 0.5, bounds.Quadratic)
	te := NewFlatTileEngine(e.Clone())
	tile := geom.Rect{Min: []float64{0, 0}, Max: []float64{4, 4}}
	var f FlatFrontier
	te.BuildFrontierEps(tile, 0.05, &f)
	if f.SettledLB > f.SettledUB {
		t.Errorf("settled bounds inverted: [%g, %g]", f.SettledLB, f.SettledUB)
	}
	if f.Size() > DefaultMaxFrontier {
		t.Errorf("frontier size %d exceeds cap %d", f.Size(), DefaultMaxFrontier)
	}
	// The frontier plus settled contribution must bracket F for any query in
	// the tile even before per-pixel refinement.
	for _, q := range tileQueries(rng, tile, 10) {
		lb, ub := f.SettledLB+f.seedLB, f.SettledUB+f.seedUB
		exact := e.Exact(q)
		if exact < lb || exact > ub {
			t.Fatalf("tile-uniform bounds [%g, %g] do not bracket exact %g at %v", lb, ub, exact, q)
		}
	}
}

func TestPromotePreservesGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := clusteredPoints(rng, 300)
	e := buildEngine(t, pts, kernel.Gaussian, 0.5, bounds.Quadratic)
	te := NewFlatTileEngine(e.Clone())
	tile := geom.Rect{Min: []float64{1, 1}, Max: []float64{3, 3}}
	const eps = 0.02
	var f FlatFrontier
	te.BuildFrontierEps(tile, eps, &f)
	for i, q := range tileQueries(rng, tile, 50) {
		got, _ := te.EvalEpsFrom(&f, q, eps)
		exact := e.Exact(q)
		if diff := got - exact; diff > eps*exact || -diff > eps*exact {
			t.Fatalf("query %d after %d promotions: got %g, exact %g", i, i, got, exact)
		}
		te.Promote(&f)
	}
}
