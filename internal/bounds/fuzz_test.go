package bounds

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// FuzzEvaluatorBounds: for a fuzzer-chosen dataset shape, kernel, γ, and
// query, every bound method's [LB, UB] must bracket the exact node sum on
// every node of the tree — the quadratic-bound coefficients' end-to-end
// soundness invariant.
func FuzzEvaluatorBounds(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(0), 1.0, 0.3, 0.7, false)
	f.Add(int64(5), uint8(120), uint8(3), 0.2, -2.0, 9.0, true)
	f.Add(int64(9), uint8(4), uint8(5), 10.0, 0.0, 0.0, false) // tiny set, quartic
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kernRaw uint8, gammaRaw, qx, qy float64, ball bool) {
		if math.IsNaN(gammaRaw) || math.IsInf(gammaRaw, 0) || math.IsNaN(qx) || math.IsNaN(qy) || math.IsInf(qx, 0) || math.IsInf(qy, 0) {
			return
		}
		n := int(nRaw)%150 + 1
		kern := kernel.Kernel(int(kernRaw) % len(kernel.All()))
		gamma := math.Abs(math.Mod(gammaRaw, 100))
		if gamma == 0 {
			gamma = 0.5
		}
		rng := rand.New(rand.NewSource(seed))
		coords := make([]float64, 2*n)
		for i := range coords {
			coords[i] = 10 * rng.NormFloat64()
		}
		pts := geom.NewPoints(coords, 2)
		tree, err := kdtree.Build(pts, kdtree.Options{Gram: true})
		if err != nil {
			t.Fatal(err)
		}
		q := []float64{math.Mod(qx, 50), math.Mod(qy, 50)}
		weight := 1.0 / float64(n)

		methods := []Method{Quadratic, MinMax}
		if kern.HasLinearBounds() {
			methods = append(methods, Linear)
		}
		for _, m := range methods {
			ev, err := NewEvaluator(kern, gamma, weight, m, 2)
			if err != nil {
				t.Fatal(err)
			}
			ev.SetBallTightening(ball)
			tree.Walk(func(id int32) bool {
				lb, ub := ev.FlatBounds(tree, id, q)
				exact := ev.FlatExactNode(tree, id, q)
				tol := 1e-9*(math.Abs(exact)+math.Abs(lb)+math.Abs(ub)) + 1e-300
				if lb > exact+tol || exact > ub+tol {
					t.Fatalf("%s/%s node [%d,%d): bounds [%.17g,%.17g] miss exact %.17g (γ=%g q=%v)",
						kern, m, tree.Start[id], tree.End[id], lb, ub, exact, gamma, q)
				}
				return true
			})
		}
	})
}

// FuzzRectBounds: the tile-uniform FlatRectBounds must bracket the exact
// node sum for every query inside the rectangle.
func FuzzRectBounds(f *testing.F) {
	f.Add(int64(2), uint8(40), uint8(0), 0.5, -1.0, -1.0, 3.0, 4.0)
	f.Add(int64(8), uint8(90), uint8(2), 2.0, 0.0, 0.0, 0.0, 0.0) // degenerate rect
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kernRaw uint8, gammaRaw, ax, ay, bx, by float64) {
		for _, v := range []float64{gammaRaw, ax, ay, bx, by} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		n := int(nRaw)%100 + 1
		kern := kernel.Kernel(int(kernRaw) % len(kernel.All()))
		gamma := math.Abs(math.Mod(gammaRaw, 100))
		if gamma == 0 {
			gamma = 0.5
		}
		rng := rand.New(rand.NewSource(seed))
		coords := make([]float64, 2*n)
		for i := range coords {
			coords[i] = 10 * rng.NormFloat64()
		}
		tree, err := kdtree.Build(geom.NewPoints(coords, 2), kdtree.Options{Gram: true})
		if err != nil {
			t.Fatal(err)
		}
		rect := geom.Rect{
			Min: []float64{math.Min(math.Mod(ax, 40), math.Mod(bx, 40)), math.Min(math.Mod(ay, 40), math.Mod(by, 40))},
			Max: []float64{math.Max(math.Mod(ax, 40), math.Mod(bx, 40)), math.Max(math.Mod(ay, 40), math.Mod(by, 40))},
		}
		ev, err := NewEvaluator(kern, gamma, 1.0/float64(n), Quadratic, 2)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, 2)
		tree.Walk(func(id int32) bool {
			lb, ub := ev.FlatRectBounds(tree, id, rect)
			for i := 0; i < 8; i++ {
				for j := range q {
					q[j] = rect.Min[j] + rng.Float64()*(rect.Max[j]-rect.Min[j])
				}
				exact := ev.FlatExactNode(tree, id, q)
				tol := 1e-9*(math.Abs(exact)+math.Abs(lb)+math.Abs(ub)) + 1e-300
				if lb > exact+tol || exact > ub+tol {
					t.Fatalf("%s node [%d,%d): rect bounds [%.17g,%.17g] miss exact %.17g at q=%v",
						kern, tree.Start[id], tree.End[id], lb, ub, exact, q)
				}
			}
			return true
		})
	})
}
