package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

// FuzzBuildInvariants: for fuzzer-chosen cardinality, leaf size, weighting,
// and coordinate distribution (including heavy duplication), the built tree
// must satisfy its structural invariants, its node weight sums must match
// brute force, and it must equal the generic loops' build bit for bit.
// FuzzFlatTreeInvariants checks the node moments, through the flat tree's
// query methods, on the same inputs.
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
			var sumW float64
			for i := nd.Start; i < nd.End; i++ {
				p := tree.Pts.At(i)
				if !nd.Rect.Contains(p) {
					t.Fatalf("point %v escapes node rect %v", p, nd.Rect)
				}
				sumW += tree.WeightAt(i)
			}
			if math.Abs(sumW-nd.SumW) > 1e-9*(1+sumW) {
				t.Fatalf("SumW=%g, brute force %g", nd.SumW, sumW)
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
