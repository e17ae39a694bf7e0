package quad_test

import (
	"context"
	"math"
	"strings"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
)

// TestNewRejectsEmptyDataset: every constructor form must reject an empty
// dataset with an error, not a zero-value KDV.
func TestNewRejectsEmptyDataset(t *testing.T) {
	if _, err := quad.New(nil, 2); err == nil {
		t.Error("New(nil, 2) accepted an empty dataset")
	}
	if _, err := quad.New([]float64{}, 2); err == nil {
		t.Error("New([], 2) accepted an empty dataset")
	}
	if _, err := quad.NewFromPoints(nil); err == nil {
		t.Error("NewFromPoints(nil) accepted an empty dataset")
	}
	if _, err := quad.New([]float64{1, 2, 3}, 2); err == nil {
		t.Error("New accepted a coordinate buffer that is not a multiple of dim")
	}
	if _, err := quad.New([]float64{1, 2}, 0); err == nil {
		t.Error("New accepted dimension 0")
	}
}

// edgeCase is one degenerate dataset/query geometry. Every case is run
// against Estimate (ε ladder including 0), IsHot (τ ladder including 0 and
// above-maximum), and DensityBounds (root sandwich), for each bound method.
type edgeCase struct {
	name   string
	coords []float64
	dim    int
	// query to evaluate at; tauHigh must exceed the maximum possible
	// density of the case so IsHot is provably false.
	query   []float64
	tauHigh float64
}

func edgeCases(t *testing.T) []edgeCase {
	t.Helper()
	d7 := dataset.Hep(200, 7, 1)
	line := make([]float64, 100)
	for i := range line {
		line[i] = 0.05 * float64(i%23)
	}
	identical := make([]float64, 0, 100)
	for i := 0; i < 50; i++ {
		identical = append(identical, 3, 4)
	}
	return []edgeCase{
		{name: "single-point", coords: []float64{3, 4}, dim: 2, query: []float64{3, 4}, tauHigh: 2},
		{name: "all-identical-points", coords: identical, dim: 2, query: []float64{3, 4}, tauHigh: 2},
		{name: "query-equals-data-point", coords: []float64{0, 0, 1, 1, 2, 2, 5, 1}, dim: 2, query: []float64{1, 1}, tauHigh: 2},
		{name: "d=1", coords: line, dim: 1, query: []float64{0.5}, tauHigh: 2},
		{name: "d=7", coords: d7.Coords, dim: 7, query: d7.At(0), tauHigh: 2},
	}
}

// TestQueryEdgeCases runs the degenerate geometries through the three query
// entry points for every bound method: the εKDV guarantee must hold down to
// ε=0, τ=0 must always be hot (densities are nonnegative), a τ above the
// maximum possible density must never be, and the no-refinement root bounds
// must sandwich the exact density.
func TestQueryEdgeCases(t *testing.T) {
	methods := []quad.Method{quad.MethodQuadratic, quad.MethodLinear, quad.MethodMinMax}
	for _, tc := range edgeCases(t) {
		for _, m := range methods {
			t.Run(tc.name+"/"+m.String(), func(t *testing.T) {
				// Degenerate geometries break the automatic bandwidth (zero
				// variance ⇒ no Scott's rule), so pin γ and w explicitly.
				// w=1/n keeps every density ≤ 1 < tauHigh.
				n := len(tc.coords) / tc.dim
				k, err := quad.New(tc.coords, tc.dim,
					quad.WithMethod(m), quad.WithBandwidth(1, 1/float64(n)))
				if err != nil {
					t.Fatal(err)
				}
				f, err := k.Density(tc.query)
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0, 0.01, 0.2} {
					r, err := k.Estimate(tc.query, eps)
					if err != nil {
						t.Fatal(err)
					}
					if slack := eps*f + 1e-9*f; math.Abs(r-f) > slack {
						t.Errorf("Estimate(ε=%g) = %.17g, exact %.17g — guarantee violated", eps, r, f)
					}
				}
				if hot, err := k.IsHot(tc.query, 0); err != nil || !hot {
					t.Errorf("IsHot(τ=0) = (%v, %v), want hot: densities are nonnegative and ties are hot", hot, err)
				}
				if hot, err := k.IsHot(tc.query, tc.tauHigh); err != nil || hot {
					t.Errorf("IsHot(τ=%g) = (%v, %v), want cold: τ exceeds the maximum density", tc.tauHigh, hot, err)
				}
				if f > 0 {
					if hot, err := k.IsHot(tc.query, f*0.5); err != nil || !hot {
						t.Errorf("IsHot(τ=F/2) = (%v, %v), want hot", hot, err)
					}
				}
				lb, ub, err := k.DensityBounds(tc.query)
				if err != nil {
					t.Fatal(err)
				}
				tol := 1e-9 * (math.Abs(f) + math.Abs(lb) + math.Abs(ub))
				if lb > f+tol || f > ub+tol {
					t.Errorf("DensityBounds = [%.17g, %.17g] does not sandwich exact %.17g", lb, ub, f)
				}
			})
		}
	}
}

// TestQueryArgumentErrors pins the error contract of the query entry
// points: mismatched query dimension, negative or NaN ε, windows that are
// degenerate or not finite, and DensityBounds on methods without a bound
// function.
func TestQueryArgumentErrors(t *testing.T) {
	pts, err := dataset.Generate("crime", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := quad.New(pts.Coords, pts.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Estimate([]float64{1, 2, 3}, 0.1); err == nil {
		t.Error("Estimate accepted a 3-d query on a 2-d dataset")
	}
	res := quad.Resolution{W: 16, H: 16}
	keep := func(quad.Snapshot) bool { return true }
	for _, eps := range []float64{-0.1, math.NaN()} {
		if _, err := k.Estimate([]float64{1, 2}, eps); err == nil {
			t.Errorf("Estimate accepted ε=%g", eps)
		}
		if _, err := k.RenderEps(res, eps); err == nil {
			t.Errorf("RenderEps accepted ε=%g", eps)
		}
		if _, err := k.RenderEpsSubInCtx(context.Background(), res, eps, quad.Window{}, quad.PixelRect{X0: 0, Y0: 0, X1: 8, Y1: 8}); err == nil {
			t.Errorf("RenderEpsSubInCtx accepted ε=%g", eps)
		}
		if _, err := k.RenderProgressive(res, eps, 0, 0); err == nil {
			t.Errorf("RenderProgressive accepted ε=%g", eps)
		}
		if _, err := k.RenderProgressiveStream(res, eps, 0, keep); err == nil {
			t.Errorf("RenderProgressiveStream accepted ε=%g", eps)
		}
	}
	for _, win := range []quad.Window{
		{MinX: 1, MinY: 0, MaxX: 1, MaxY: 2},                              // zero width
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1},                     // NaN corner
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: math.NaN()},                     // NaN corner
		{MinX: 0, MinY: 0, MaxX: math.Inf(1), MaxY: 1},                    // infinite corner
		{MinX: math.Inf(-1), MinY: 0, MaxX: 1, MaxY: 1},                   // infinite corner
		{MinX: -math.MaxFloat64, MinY: 0, MaxX: math.MaxFloat64, MaxY: 1}, // width overflows
	} {
		if _, err := k.RenderEpsIn(res, 0.05, win); err == nil {
			t.Errorf("RenderEpsIn accepted window %+v", win)
		}
		if _, err := k.RenderTauIn(res, 0.001, win); err == nil {
			t.Errorf("RenderTauIn accepted window %+v", win)
		}
		if _, err := k.RenderProgressiveIn(res, 0.05, 0, 0, win); err == nil {
			t.Errorf("RenderProgressiveIn accepted window %+v", win)
		}
	}
	if _, err := k.IsHot([]float64{1}, 0.5); err == nil {
		t.Error("IsHot accepted a 1-d query on a 2-d dataset")
	}
	if _, _, err := k.DensityBounds([]float64{1}); err == nil {
		t.Error("DensityBounds accepted a 1-d query on a 2-d dataset")
	}

	for _, m := range []quad.Method{quad.MethodExact, quad.MethodZOrder} {
		km, err := quad.New(pts.Coords, pts.Dim, quad.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := km.DensityBounds([]float64{50, 50}); err == nil {
			t.Errorf("DensityBounds on %s returned no error; the method has no bound function", m)
		} else if !strings.Contains(err.Error(), m.String()) {
			t.Errorf("DensityBounds error %q does not name the method", err)
		}
	}
}
