package bounds

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// TestBallTighteningStillSandwiches: with the ball-intersected intervals,
// the sandwich property LB ≤ F ≤ UB must still hold on every node.
func TestBallTighteningStillSandwiches(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	f := newFixture(t, rng, 400, 2, true)
	for _, kern := range []kernel.Kernel{kernel.Gaussian, kernel.Triangular, kernel.Exponential} {
		for _, method := range allMethods(kern) {
			ev, err := NewEvaluator(kern, 0.6, 1.0/400, method, 2)
			if err != nil {
				t.Fatal(err)
			}
			ev.SetBallTightening(true)
			if !ev.BallTightening() {
				t.Fatal("SetBallTightening(true) not recorded")
			}
			for trial := 0; trial < 10; trial++ {
				q := f.randQuery(rng, 2)
				f.tree.Walk(func(id int32) bool {
					lb, ub := ev.FlatBounds(f.tree, id, q)
					exact := f.exactNode(id, kern, 0.6, 1.0/400, q)
					tol := 1e-9 * (1 + math.Abs(exact))
					if lb > exact+tol || ub < exact-tol {
						t.Fatalf("%s/%s ball: [%g, %g] does not sandwich %g", kern, method, lb, ub, exact)
					}
					return f.tree.Size(id) > 30
				})
			}
		}
	}
}

// TestBallTighteningNeverLoosens: the ball-intersected interval is a subset
// of the MBR interval, so the bounds can only tighten.
func TestBallTighteningNeverLoosens(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	f := newFixture(t, rng, 400, 2, false)
	plain, err := NewEvaluator(kernel.Gaussian, 0.6, 1.0/400, MinMax, 2)
	if err != nil {
		t.Fatal(err)
	}
	ball := plain.Clone()
	ball.SetBallTightening(true)
	const tol = 1e-12
	for trial := 0; trial < 30; trial++ {
		q := f.randQuery(rng, 2)
		f.tree.Walk(func(id int32) bool {
			lbP, ubP := plain.FlatBounds(f.tree, id, q)
			lbB, ubB := ball.FlatBounds(f.tree, id, q)
			if lbB < lbP-tol*(1+lbP) || ubB > ubP+tol*(1+ubP) {
				t.Fatalf("ball loosened: [%g,%g] vs [%g,%g]", lbB, ubB, lbP, ubP)
			}
			return f.tree.Size(id) > 30
		})
	}
}

// TestCloneCopiesBallFlag: engine worker clones must inherit the setting.
func TestCloneCopiesBallFlag(t *testing.T) {
	ev, err := NewEvaluator(kernel.Gaussian, 1, 1, MinMax, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev.SetBallTightening(true)
	if !ev.Clone().BallTightening() {
		t.Error("Clone dropped ball tightening")
	}
}

// TestZeroSumWNode: a node whose weights sum to zero yields [0, 0] under
// every method.
func TestZeroSumWNode(t *testing.T) {
	pts := geom.NewPoints([]float64{0, 0, 1, 1, 2, 2, 3, 3}, 2)
	ws := []float64{0, 0, 0, 0}
	tr, err := kdtree.Build(pts, kdtree.Options{Gram: true, Weights: ws})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MinMax, Linear, Quadratic} {
		ev, err := NewEvaluator(kernel.Gaussian, 1, 1, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := ev.FlatBounds(tr, 0, []float64{1, 1})
		if lb != 0 || ub != 0 {
			t.Errorf("%s: zero-weight node bounds [%g, %g]", m, lb, ub)
		}
	}
}

// TestExactNodeWeighted covers the weighted leaf-scan path.
func TestExactNodeWeighted(t *testing.T) {
	pts := geom.NewPoints([]float64{0, 0, 1, 0, 0, 1}, 2)
	ws := []float64{2, 0, 3}
	tr, err := kdtree.Build(pts, kdtree.Options{Gram: true, Weights: ws})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(kernel.Gaussian, 1, 0.5, Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0, 0}
	got := ev.FlatExactNode(tr, 0, q)
	var want float64
	for i := 0; i < tr.Pts.Len(); i++ {
		want += tr.WeightAt(i) * kernel.Gaussian.Eval(1, geom.Dist2(q, tr.Pts.At(i)))
	}
	want *= 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted ExactNode = %g, want %g", got, want)
	}
}

// TestCosineBeyondSupportFallbacks exercises the min-max fallback when a
// node's distance interval crosses π/2γ.
func TestCosineBeyondSupportFallbacks(t *testing.T) {
	// Points spread wide enough that the root interval crosses the support.
	pts := geom.NewPoints([]float64{0, 0, 10, 10, 5, 0, 0, 5, 10, 0, 0, 10}, 2)
	tr, err := kdtree.Build(pts, kdtree.Options{Gram: true, LeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(kernel.Cosine, 0.3, 1, Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{1, 1}
	lb, ub := ev.FlatBounds(tr, 0, q)
	var exact float64
	for i := 0; i < tr.Pts.Len(); i++ {
		exact += kernel.Cosine.Eval(0.3, geom.Dist2(q, tr.Pts.At(i)))
	}
	if lb > exact+1e-12 || ub < exact-1e-12 {
		t.Errorf("crossing-support cosine bounds [%g, %g] vs exact %g", lb, ub, exact)
	}
}

// TestTangentChoicesAllValid: every tangent strategy must preserve the
// sandwich property; the paper's mean choice must be at least as tight as
// the endpoint choice on average.
func TestTangentChoicesAllValid(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	f := newFixture(t, rng, 400, 2, true)
	gapSums := map[TangentChoice]float64{}
	for _, tc := range []TangentChoice{TangentMean, TangentMidpoint, TangentXMax} {
		ev, err := NewEvaluator(kernel.Gaussian, 0.6, 1.0/400, Quadratic, 2)
		if err != nil {
			t.Fatal(err)
		}
		ev.SetTangentChoice(tc)
		for trial := 0; trial < 15; trial++ {
			q := f.randQuery(rng, 2)
			f.tree.Walk(func(id int32) bool {
				lb, ub := ev.FlatBounds(f.tree, id, q)
				exact := f.exactNode(id, kernel.Gaussian, 0.6, 1.0/400, q)
				tol := 1e-9 * (1 + exact)
				if lb > exact+tol || ub < exact-tol {
					t.Fatalf("tangent %d: [%g, %g] does not sandwich %g", tc, lb, ub, exact)
				}
				gapSums[tc] += ub - lb
				return f.tree.Size(id) > 30
			})
		}
	}
	if gapSums[TangentMean] > gapSums[TangentXMax] {
		t.Errorf("mean tangent (Equation 3) gaps %g should beat endpoint gaps %g",
			gapSums[TangentMean], gapSums[TangentXMax])
	}
}
