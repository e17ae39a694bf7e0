package bounds

import (
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// TestRectBoundsBracketAllQueries is the tile-shared traversal's core
// soundness property: FlatRectBounds(t, id, rect) must bracket the node's
// exact contribution F_R(q) for EVERY query point q in rect — that is what
// lets one shared evaluation stand in for a whole pixel tile.
func TestRectBoundsBracketAllQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	coords := make([]float64, 0, 600)
	for i := 0; i < 300; i++ {
		cx, cy := float64(i%3)*4, float64(i%2)*4
		coords = append(coords, cx+rng.NormFloat64(), cy+rng.NormFloat64())
	}
	pts := geom.NewPoints(coords, 2)
	tree, err := kdtree.Build(pts, kdtree.Options{LeafSize: 8, Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	rects := []geom.Rect{
		{Min: []float64{0, 0}, Max: []float64{2, 2}},
		{Min: []float64{-5, -5}, Max: []float64{-4, -4}},
		{Min: []float64{-2, -2}, Max: []float64{10, 8}},
		{Min: []float64{3, 3}, Max: []float64{3, 3}}, // degenerate: a point
	}
	for _, kern := range []kernel.Kernel{kernel.Gaussian, kernel.Triangular, kernel.Epanechnikov} {
		for _, ball := range []bool{false, true} {
			ev, err := NewEvaluator(kern, 0.7, 1.0/300, MinMax, 2)
			if err != nil {
				t.Fatal(err)
			}
			ev.SetBallTightening(ball)
			var nodes []int32
			tree.Walk(func(id int32) bool { nodes = append(nodes, id); return true })
			for _, rect := range rects {
				for ni, n := range nodes {
					lb, ub := ev.FlatRectBounds(tree, n, rect)
					if lb > ub {
						t.Fatalf("%v ball=%v node %d: inverted bounds [%g, %g]", kern, ball, ni, lb, ub)
					}
					// Corners plus interior samples.
					qs := [][]float64{
						{rect.Min[0], rect.Min[1]},
						{rect.Max[0], rect.Max[1]},
						{rect.Min[0], rect.Max[1]},
						{rect.Max[0], rect.Min[1]},
					}
					for s := 0; s < 6; s++ {
						qs = append(qs, []float64{
							rect.Min[0] + rng.Float64()*(rect.Max[0]-rect.Min[0]),
							rect.Min[1] + rng.Float64()*(rect.Max[1]-rect.Min[1]),
						})
					}
					for _, q := range qs {
						exact := ev.FlatExactNode(tree, n, q)
						if exact < lb-1e-12 || exact > ub+1e-12 {
							t.Fatalf("%v ball=%v node %d rect %v q %v: exact %g outside [%g, %g]",
								kern, ball, ni, rect, q, exact, lb, ub)
						}
						// The rect bounds must also contain the per-query
						// min-max bounds' information: they may be looser,
						// never contradictory.
						qlb, qub := ev.FlatBounds(tree, n, q)
						if qub < lb-1e-12 || qlb > ub+1e-12 {
							t.Fatalf("%v ball=%v node %d: per-query bounds [%g, %g] disjoint from rect bounds [%g, %g]",
								kern, ball, ni, qlb, qub, lb, ub)
						}
					}
				}
			}
		}
	}
}
