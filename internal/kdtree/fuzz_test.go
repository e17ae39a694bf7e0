package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

// The two fuzz targets below share their inputs: the seeds of addFuzzSeeds
// and the same corpus files. FuzzBuildInvariants checks what the build
// writes, FuzzFlatTreeInvariants what the tree's queries answer.

// addFuzzSeeds adds the seed inputs shared by the kd-tree fuzz targets.
func addFuzzSeeds(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(8), 1.0, false)
	f.Add(int64(7), uint8(200), uint8(1), 100.0, true)
	f.Add(int64(3), uint8(5), uint8(30), 0.0, true) // all-identical points
	f.Add(int64(11), uint8(31), uint8(0), 2.5, false)
}

// fuzzInput is one fuzzer-chosen 2-d dataset: n points on a coarse lattice
// scaled by spread (so duplicates are common), optionally weighted.
type fuzzInput struct {
	coords, weights []float64
	n, leaf         int
	spread          float64
	rng             *rand.Rand // drawn past the points and weights
}

func newFuzzInput(seed int64, nRaw, leafRaw uint8, spread float64, weighted bool) fuzzInput {
	in := fuzzInput{
		n:    int(nRaw)%200 + 1,
		leaf: int(leafRaw) % 40, // 0 exercises the default
		rng:  rand.New(rand.NewSource(seed)),
	}
	if math.IsNaN(spread) || math.IsInf(spread, 0) {
		spread = 1
	}
	in.spread = math.Abs(math.Mod(spread, 1e4))
	in.coords = make([]float64, 2*in.n)
	for i := range in.coords {
		in.coords[i] = in.spread * math.Floor(8*in.rng.Float64()) / 8
	}
	if weighted {
		in.weights = make([]float64, in.n)
		for i := range in.weights {
			in.weights[i] = in.rng.Float64()
		}
	}
	return in
}

// options returns the build options over copies of the input, so a build
// reordering them leaves the input as drawn.
func (in fuzzInput) options() (geom.Points, Options) {
	return geom.NewPoints(append([]float64(nil), in.coords...), 2),
		Options{LeafSize: in.leaf, Gram: true, Weights: append([]float64(nil), in.weights...)}
}

func (in fuzzInput) build(t *testing.T) *Tree {
	t.Helper()
	tree, err := Build(in.options())
	if err != nil {
		t.Fatalf("Build(n=%d, leaf=%d): %v", in.n, in.leaf, err)
	}
	return tree
}

// FuzzBuildInvariants builds the tree over fuzzer-chosen cardinality, leaf
// size, weighting and coordinate spread and asserts:
//
//   - bit-for-bit identity with the reference build (refBuild: depth-first,
//     generic loops, textbook Hoare partition), which also makes the build
//     deterministic;
//   - the structural invariants of the BFS arrays — child ids in range and
//     monotone, adjacent sibling ids, leaf markers paired, each node's point
//     range exactly partitioned by its children, leaves within the leaf
//     size unless all their points coincide, every point inside its node's
//     rect, the leaves covering all n points, and every node reachable
//     from the root;
//   - every node's weight sum against brute force over its point range.
func FuzzBuildInvariants(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, leafRaw uint8, spread float64, weighted bool) {
		in := newFuzzInput(seed, nRaw, leafRaw, spread, weighted)
		n := in.n
		ft := in.build(t)
		requireIdentical(t, "Build vs reference", refBuild(in.options()), ft)

		maxLeaf := in.leaf
		if maxLeaf < 1 {
			maxLeaf = DefaultLeafSize
		}
		nn := ft.NumNodes()
		leafPts := 0
		for id := int32(0); id < int32(nn); id++ {
			l, r := ft.Left[id], ft.Right[id]
			if (l == NoChild) != (r == NoChild) {
				t.Fatalf("node %d has one child (%d, %d)", id, l, r)
			}
			if ft.Start[id] < 0 || ft.End[id] > int32(n) || ft.Start[id] >= ft.End[id] {
				t.Fatalf("node %d range [%d,%d) outside [0,%d)", id, ft.Start[id], ft.End[id], n)
			}
			rect := ft.Rect(id)
			var sumW float64
			for i := int(ft.Start[id]); i < int(ft.End[id]); i++ {
				if p := ft.Pts.At(i); !rect.Contains(p) {
					t.Fatalf("point %v escapes node %d rect %v", p, id, rect)
				}
				sumW += ft.WeightAt(i)
			}
			if math.Abs(sumW-ft.SumW[id]) > 1e-9*(1+sumW) {
				t.Fatalf("node %d SumW=%g, brute force %g", id, ft.SumW[id], sumW)
			}
			if l == NoChild {
				leafPts += ft.Size(id)
				// Oversized leaves are legal only when every point
				// coincides: the build keeps unsplittable nodes whole.
				if ft.Size(id) > maxLeaf && !rectIsPoint(rect) {
					t.Fatalf("splittable leaf %d holds %d points, cap %d (rect %v)", id, ft.Size(id), maxLeaf, rect)
				}
				continue
			}
			if l <= id || r <= id || int(l) >= nn || int(r) >= nn {
				t.Fatalf("node %d children (%d, %d) not BFS-monotone in [0,%d)", id, l, r, nn)
			}
			if r != l+1 {
				t.Fatalf("node %d siblings %d, %d not adjacent", id, l, r)
			}
			if ft.Start[l] != ft.Start[id] || ft.End[r] != ft.End[id] || ft.End[l] != ft.Start[r] {
				t.Fatalf("node %d children [%d,%d)+[%d,%d) do not partition [%d,%d)",
					id, ft.Start[l], ft.End[l], ft.Start[r], ft.End[r], ft.Start[id], ft.End[id])
			}
		}
		if leafPts != n {
			t.Fatalf("leaves cover %d points, want %d", leafPts, n)
		}
		walked := 0
		ft.Walk(func(int32) bool { walked++; return true })
		if walked != nn {
			t.Fatalf("walk from the root visits %d nodes, NumNodes=%d", walked, nn)
		}
	})
}

// FuzzFlatTreeInvariants builds the tree over the same fuzzer-chosen inputs
// and checks every node's moment queries (SumDist2, SumDist24, RectSumDist2)
// against brute force over its point range, at a fuzzer-drawn query point.
func FuzzFlatTreeInvariants(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, leafRaw uint8, spread float64, weighted bool) {
		in := newFuzzInput(seed, nRaw, leafRaw, spread, weighted)
		ft := in.build(t)
		q := []float64{in.spread * in.rng.Float64(), in.spread * in.rng.Float64()}
		scratch := make([]float64, 2)
		for id := int32(0); id < int32(ft.NumNodes()); id++ {
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
	})
}
