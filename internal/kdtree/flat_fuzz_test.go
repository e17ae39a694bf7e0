package kdtree_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kdtree/flat"
)

// FuzzFlatTreeInvariants builds the pointer tree and its flat SoA conversion
// over fuzzer-chosen datasets and asserts the flattening contract:
//
//   - structural invariants of the flat arrays — child ids in range and
//     monotone (BFS order), adjacent sibling ids, leaf markers paired,
//     subtree point intervals exactly partitioned by the children;
//   - node-for-node statistics equality with the pointer tree within 0 ULP
//     (the conversion copies, never recomputes);
//   - every node's moment queries (SumDist2, SumDist24, RectSumDist2)
//     matching brute force over its point range;
//   - a rebuild over an identical buffer, flattened again, bit-identical
//     to the first flat tree (the build is deterministic).
//
// Its corpus holds FuzzBuildInvariants' inputs too.
func FuzzFlatTreeInvariants(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(8), 1.0, false)
	f.Add(int64(7), uint8(200), uint8(1), 100.0, true)
	f.Add(int64(3), uint8(5), uint8(30), 0.0, true) // all-identical points
	f.Add(int64(11), uint8(31), uint8(0), 2.5, false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, leafRaw uint8, spread float64, weighted bool) {
		n := int(nRaw)%200 + 1
		leaf := int(leafRaw) % 40
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 1
		}
		spread = math.Abs(math.Mod(spread, 1e4))
		rng := rand.New(rand.NewSource(seed))
		coords := make([]float64, 2*n)
		for i := range coords {
			coords[i] = spread * math.Floor(8*rng.Float64()) / 8
		}
		coords2 := append([]float64(nil), coords...)
		var weights, weights2 []float64
		if weighted {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = rng.Float64()
			}
			weights2 = append([]float64(nil), weights...)
		}

		tree, err := kdtree.Build(geom.NewPoints(coords, 2), kdtree.Options{LeafSize: leaf, Gram: true, Weights: weights})
		if err != nil {
			t.Fatalf("Build(n=%d, leaf=%d): %v", n, leaf, err)
		}
		ft, err := flat.FromTree(tree)
		if err != nil {
			t.Fatalf("FromTree: %v", err)
		}

		nn := ft.NumNodes()
		if nn != tree.NumNodes() {
			t.Fatalf("flat has %d nodes, pointer tree %d", nn, tree.NumNodes())
		}
		if ft.LeafSize != tree.LeafSize {
			t.Fatalf("flat leaf size %d, pointer %d", ft.LeafSize, tree.LeafSize)
		}

		// Structural pass over the arrays alone.
		for id := int32(0); id < int32(nn); id++ {
			l, r := ft.Left[id], ft.Right[id]
			if (l == flat.NoChild) != (r == flat.NoChild) {
				t.Fatalf("node %d has one child (%d, %d)", id, l, r)
			}
			if ft.Start[id] < 0 || ft.End[id] > int32(n) || ft.Start[id] >= ft.End[id] {
				t.Fatalf("node %d range [%d,%d) outside [0,%d)", id, ft.Start[id], ft.End[id], n)
			}
			if l == flat.NoChild {
				continue
			}
			if l <= id || r <= id || int(l) >= nn || int(r) >= nn {
				t.Fatalf("node %d children (%d, %d) not BFS-monotone in [0,%d)", id, l, r, nn)
			}
			if r != l+1 {
				t.Fatalf("node %d siblings %d, %d not adjacent", id, l, r)
			}
			// Children partition the parent's point interval exactly.
			if ft.Start[l] != ft.Start[id] || ft.End[r] != ft.End[id] || ft.End[l] != ft.Start[r] {
				t.Fatalf("node %d children [%d,%d)+[%d,%d) do not partition [%d,%d)",
					id, ft.Start[l], ft.End[l], ft.Start[r], ft.End[r], ft.Start[id], ft.End[id])
			}
		}

		// Moment pass: every node's moment queries against brute force.
		q := []float64{spread * rng.Float64(), spread * rng.Float64()}
		scratch := make([]float64, 2)
		for id := int32(0); id < int32(nn); id++ {
			var s2, s4, s2c float64
			for i := int(ft.Start[id]); i < int(ft.End[id]); i++ {
				p := ft.Pts.At(i)
				w := ft.WeightAt(i)
				d2 := geom.Dist2(q, p)
				s2 += w * d2
				s4 += w * d2 * d2
				s2c += w * geom.Dist2(ft.CenterAt(id), p)
			}
			tol := 1e-9 * (1 + s2)
			if got := ft.SumDist2(id, q, scratch); math.Abs(got-s2) > tol {
				t.Fatalf("node %d SumDist2=%g, brute force %g", id, got, s2)
			}
			g2, g4 := ft.SumDist24(id, q, scratch)
			if math.Abs(g2-s2) > tol || math.Abs(g4-s4) > 1e-9*(1+s4) {
				t.Fatalf("node %d SumDist24=(%g,%g), brute force (%g,%g)", id, g2, g4, s2, s4)
			}
			// The node's center lies inside its own rect, so the exact
			// statistic there must fall in the rect-range.
			lo, hi := ft.RectSumDist2(id, ft.Rect(id))
			if ctol := 1e-9 * (1 + s2c); s2c < lo-ctol || s2c > hi+ctol {
				t.Fatalf("node %d Σdist²(center) %g outside own-rect range [%g,%g]", id, s2c, lo, hi)
			}
		}

		// Statistics pass: replay the conversion's BFS and require 0-ULP
		// equality against each pointer node.
		d := tree.Dim()
		queue := []*kdtree.Node{tree.Root}
		for id := 0; id < len(queue); id++ {
			nd := queue[id]
			if nd.Left != nil {
				queue = append(queue, nd.Left, nd.Right)
			}
			if (nd.Left == nil) != (ft.Left[id] == flat.NoChild) {
				t.Fatalf("node %d leafness differs", id)
			}
			if int(ft.Start[id]) != nd.Start || int(ft.End[id]) != nd.End {
				t.Fatalf("node %d range [%d,%d) != pointer [%d,%d)", id, ft.Start[id], ft.End[id], nd.Start, nd.End)
			}
			eq := func(name string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("node %d %s: flat %x != pointer %x", id, name, math.Float64bits(a), math.Float64bits(b))
				}
			}
			eq("SumW", ft.SumW[id], nd.SumW)
			eq("SumNorm2", ft.SumNorm2[id], nd.SumNorm2)
			eq("SumNorm4", ft.SumNorm4[id], nd.SumNorm4)
			eq("Radius", ft.Radius[id], nd.Radius)
			for k := 0; k < d; k++ {
				eq("RectMin", ft.RectMin[id*d+k], nd.Rect.Min[k])
				eq("RectMax", ft.RectMax[id*d+k], nd.Rect.Max[k])
				eq("Center", ft.Center[id*d+k], nd.Center[k])
				eq("SumP", ft.SumP[id*d+k], nd.SumP[k])
				eq("SumNorm2P", ft.SumNorm2P[id*d+k], nd.SumNorm2P[k])
			}
			if tree.HasGram() != ft.HasGram() {
				t.Fatalf("node %d gram presence differs", id)
			}
			if ft.HasGram() {
				for k := 0; k < d*d; k++ {
					eq("Gram", ft.Gram[id*d*d+k], nd.Gram[k])
				}
			}
		}
		if len(queue) != nn {
			t.Fatalf("BFS replay visited %d nodes, flat has %d", len(queue), nn)
		}

		// Rebuilding over an identical buffer and flattening again must
		// reproduce every array bit-for-bit (the build is deterministic).
		tree2, err := kdtree.Build(geom.NewPoints(coords2, 2), kdtree.Options{LeafSize: leaf, Gram: true, Weights: weights2})
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		ft2, err := flat.FromTree(tree2)
		if err != nil {
			t.Fatalf("FromTree(rebuild): %v", err)
		}
		if ft2.NumNodes() != nn {
			t.Fatalf("rebuild has %d nodes, conversion %d", ft2.NumNodes(), nn)
		}
		eqSliceI := func(name string, a, b []int32) {
			if len(a) != len(b) {
				t.Fatalf("%s length %d != %d", name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s[%d]: rebuild %d != conversion %d", name, i, a[i], b[i])
				}
			}
		}
		eqSliceF := func(name string, a, b []float64) {
			if len(a) != len(b) {
				t.Fatalf("%s length %d != %d", name, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s[%d]: rebuild %x != conversion %x", name, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
				}
			}
		}
		eqSliceI("Left", ft2.Left, ft.Left)
		eqSliceI("Right", ft2.Right, ft.Right)
		eqSliceI("Start", ft2.Start, ft.Start)
		eqSliceI("End", ft2.End, ft.End)
		eqSliceF("RectMin", ft2.RectMin, ft.RectMin)
		eqSliceF("RectMax", ft2.RectMax, ft.RectMax)
		eqSliceF("Center", ft2.Center, ft.Center)
		eqSliceF("SumP", ft2.SumP, ft.SumP)
		eqSliceF("SumNorm2P", ft2.SumNorm2P, ft.SumNorm2P)
		eqSliceF("SumW", ft2.SumW, ft.SumW)
		eqSliceF("SumNorm2", ft2.SumNorm2, ft.SumNorm2)
		eqSliceF("SumNorm4", ft2.SumNorm4, ft.SumNorm4)
		eqSliceF("Radius", ft2.Radius, ft.Radius)
		eqSliceF("Gram", ft2.Gram, ft.Gram)
		eqSliceF("Coords", ft2.Pts.Coords, ft.Pts.Coords)
	})
}
