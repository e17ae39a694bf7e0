package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

// FuzzBuildInvariants: for fuzzer-chosen cardinality, leaf size, weighting,
// and coordinate distribution (including heavy duplication), the built tree
// must satisfy its structural invariants, its node statistics must match
// brute force, and it must equal the generic loops' build bit for bit.
func FuzzBuildInvariants(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(8), 1.0, false)
	f.Add(int64(7), uint8(200), uint8(1), 100.0, true)
	f.Add(int64(3), uint8(5), uint8(30), 0.0, true) // all-identical points
	f.Fuzz(func(t *testing.T, seed int64, nRaw, leafRaw uint8, spread float64, weighted bool) {
		n := int(nRaw)%200 + 1
		leaf := int(leafRaw) % 40 // 0 exercises the default
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 1
		}
		spread = math.Abs(math.Mod(spread, 1e4))
		rng := rand.New(rand.NewSource(seed))
		coords := make([]float64, 2*n)
		for i := range coords {
			// Snap to a coarse lattice so duplicate coordinates are common.
			coords[i] = spread * math.Floor(8*rng.Float64()) / 8
		}
		var weights []float64
		if weighted {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = rng.Float64()
			}
		}
		// The generic loops, over a copy of the same input, are the d == 2
		// loops' bit-for-bit reference.
		ref, err := build(geom.NewPoints(append([]float64(nil), coords...), 2),
			Options{LeafSize: leaf, Gram: true, Weights: append([]float64(nil), weights...)}, false)
		if err != nil {
			t.Fatalf("generic build(n=%d, leaf=%d): %v", n, leaf, err)
		}
		pts := geom.NewPoints(coords, 2)
		tree, err := Build(pts, Options{LeafSize: leaf, Gram: true, Weights: weights})
		if err != nil {
			t.Fatalf("Build(n=%d, leaf=%d): %v", n, leaf, err)
		}
		requireIdentical(t, "d == 2 loops vs generic", ref, tree)

		maxLeaf := leaf
		if maxLeaf < 1 {
			maxLeaf = DefaultLeafSize
		}
		q := []float64{spread * rng.Float64(), spread * rng.Float64()}
		scratch := make([]float64, 2)
		nodes := 0
		tree.Walk(func(nd *Node) bool {
			nodes++
			if nd.Start < 0 || nd.End > n || nd.Start >= nd.End {
				t.Fatalf("node range [%d,%d) outside [0,%d)", nd.Start, nd.End, n)
			}
			if nd.IsLeaf() {
				if nd.Size() > maxLeaf {
					// Oversized leaves are legal only when every point
					// coincides — the build keeps unsplittable nodes whole.
					if nd.Rect.Max[0] > nd.Rect.Min[0] || nd.Rect.Max[1] > nd.Rect.Min[1] {
						t.Fatalf("splittable leaf holds %d points, cap %d (rect %v)", nd.Size(), maxLeaf, nd.Rect)
					}
				}
			} else {
				if nd.Left.Start != nd.Start || nd.Right.End != nd.End || nd.Left.End != nd.Right.Start {
					t.Fatalf("children [%d,%d)+[%d,%d) do not partition [%d,%d)",
						nd.Left.Start, nd.Left.End, nd.Right.Start, nd.Right.End, nd.Start, nd.End)
				}
			}
			var sumW, s2, s4, s2c float64
			for i := nd.Start; i < nd.End; i++ {
				p := tree.Pts.At(i)
				if !nd.Rect.Contains(p) {
					t.Fatalf("point %v escapes node rect %v", p, nd.Rect)
				}
				w := tree.WeightAt(i)
				d2 := geom.Dist2(q, p)
				sumW += w
				s2 += w * d2
				s4 += w * d2 * d2
				s2c += w * geom.Dist2(nd.Center, p)
			}
			if math.Abs(sumW-nd.SumW) > 1e-9*(1+sumW) {
				t.Fatalf("SumW=%g, brute force %g", nd.SumW, sumW)
			}
			tol := 1e-9 * (1 + s2)
			if got := nd.SumDist2(q, scratch); math.Abs(got-s2) > tol {
				t.Fatalf("SumDist2=%g, brute force %g", got, s2)
			}
			g2, g4 := nd.SumDist24(q, scratch)
			if math.Abs(g2-s2) > tol || math.Abs(g4-s4) > 1e-9*(1+s4) {
				t.Fatalf("SumDist24=(%g,%g), brute force (%g,%g)", g2, g4, s2, s4)
			}
			// The node's center lies inside its own rect, so the exact
			// statistic there must fall in the rect-range.
			lo, hi := nd.RectSumDist2(nd.Rect)
			if ctol := 1e-9 * (1 + s2c); s2c < lo-ctol || s2c > hi+ctol {
				t.Fatalf("Σdist²(center) %g outside own-rect range [%g,%g]", s2c, lo, hi)
			}
			return true
		})
		if nodes != tree.NumNodes() {
			t.Fatalf("walked %d nodes, NumNodes=%d", nodes, tree.NumNodes())
		}
		// The tree must hold a permutation: total leaf size equals n.
		var leafPts int
		tree.Walk(func(nd *Node) bool {
			if nd.IsLeaf() {
				leafPts += nd.Size()
			}
			return true
		})
		if leafPts != n {
			t.Fatalf("leaves cover %d points, want %d", leafPts, n)
		}
	})
}
