package engine

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// weightedExact computes the weighted ground truth by brute force.
func weightedExact(tr *kdtree.Tree, kern kernel.Kernel, gamma, w float64, q []float64) float64 {
	var sum float64
	for i := 0; i < tr.Pts.Len(); i++ {
		sum += tr.WeightAt(i) * kern.Eval(gamma, geom.Dist2(q, tr.Pts.At(i)))
	}
	return w * sum
}

// TestWeightedEpsGuarantee: the ε guarantee must hold for non-uniform point
// weights across kernels and methods (generalized Equation 1).
func TestWeightedEpsGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := clusteredPoints(rng, 1500)
	weights := make([]float64, pts.Len())
	for i := range weights {
		// Heavy-tailed weights, including exact zeros.
		switch i % 5 {
		case 0:
			weights[i] = 0
		case 1:
			weights[i] = 10
		default:
			weights[i] = rng.Float64()
		}
	}
	for _, kern := range []kernel.Kernel{kernel.Gaussian, kernel.Triangular, kernel.Cosine, kernel.Exponential} {
		methods := []bounds.Method{bounds.MinMax, bounds.Quadratic}
		if kern.HasLinearBounds() {
			methods = append(methods, bounds.Linear)
		}
		for _, m := range methods {
			ws := append([]float64(nil), weights...)
			tr, err := kdtree.Build(pts.Clone(), kdtree.Options{LeafSize: 8, Gram: true, Weights: ws})
			if err != nil {
				t.Fatal(err)
			}
			ev, err := bounds.NewEvaluator(kern, 0.4, 1e-3, m, 2)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewFlat(tr, ev)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				q := []float64{rng.Float64() * 20, rng.Float64() * 15}
				got, _ := e.EvalEps(q, 0.01)
				exact := weightedExact(tr, kern, 0.4, 1e-3, q)
				if exact == 0 {
					if got != 0 {
						t.Fatalf("%s/%s: got %g for zero weighted density", kern, m, got)
					}
					continue
				}
				if rel := math.Abs(got-exact) / exact; rel > 0.01 {
					t.Fatalf("%s/%s: weighted rel err %g (got %g, exact %g)", kern, m, rel, got, exact)
				}
			}
		}
	}
}

// TestWeightedMatchesScaledUniform: scaling every weight by c must scale
// every density by c (homogeneity).
func TestWeightedMatchesScaledUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := clusteredPoints(rng, 500)
	ws := make([]float64, pts.Len())
	for i := range ws {
		ws[i] = 3
	}
	tr, err := kdtree.Build(pts.Clone(), kdtree.Options{Gram: true, Weights: ws})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := bounds.NewEvaluator(kernel.Gaussian, 0.5, 1, bounds.Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFlat(tr, ev)
	if err != nil {
		t.Fatal(err)
	}
	plain := buildEngine(t, pts.Clone(), kernel.Gaussian, 0.5, bounds.Quadratic)
	for trial := 0; trial < 10; trial++ {
		q := []float64{rng.Float64() * 20, rng.Float64() * 15}
		gw, _ := e.EvalEps(q, 0.001)
		gu, _ := plain.EvalEps(q, 0.001)
		// plain uses weight 1/n; weighted uses scalar weight 1 with w_i=3.
		want := gu * float64(pts.Len()) * 3
		if want > 0 && math.Abs(gw-want)/want > 0.005 {
			t.Fatalf("homogeneity violated: weighted %g, scaled uniform %g", gw, want)
		}
	}
}
