package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

// TestBuildWorkersIdentity: the fork-join build must be the serial build,
// bit for bit, and the d == 2 loops must be the generic loops. Every row is
// built once serially with the generic loops (the reference) and then by
// Build at each worker count; all must agree on the node count, the point
// and weight order and every node field's Float64bits. Sizes straddle the
// fork cutoff, and the lattice rows put thousands of copies of each point in
// the data, so the single-point-leaf guard fires inside forked subtrees.
func TestBuildWorkersIdentity(t *testing.T) {
	cases := []struct {
		name     string
		dim, n   int
		lattice  bool
		weighted bool
		gram     bool
		leaf     int
	}{
		{"d1/n31", 1, 31, false, false, true, 0},
		{"d1/n5000/weighted/leaf4", 1, 5000, false, true, false, 4},
		{"d1/n20000/lattice", 1, 20000, true, false, true, 0},
		{"d2/n31/weighted/leaf4", 2, 31, false, true, false, 4},
		{"d2/n5000", 2, 5000, false, false, true, 0},
		{"d2/n5000/lattice/weighted/leaf4", 2, 5000, true, true, true, 4},
		{"d2/n20000/weighted", 2, 20000, false, true, true, 0},
		{"d2/n20000/leaf4", 2, 20000, false, false, false, 4},
		{"d2/n20000/lattice/weighted/leaf4", 2, 20000, true, true, true, 4},
		{"d3/n31/leaf4", 3, 31, false, false, true, 4},
		{"d3/n5000/weighted", 3, 5000, false, true, true, 0},
		{"d3/n20000/lattice/weighted/leaf4", 3, 20000, true, true, false, 4},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + i)))
			coords := make([]float64, c.n*c.dim)
			for j := range coords {
				if c.lattice {
					coords[j] = math.Floor(8*rng.Float64()) / 8
				} else {
					coords[j] = rng.NormFloat64() * 3
				}
			}
			var weights []float64
			if c.weighted {
				weights = make([]float64, c.n)
				for j := range weights {
					weights[j] = rng.Float64()
				}
			}
			// Each build reorders its own copy of the input.
			input := func(workers int) (geom.Points, Options) {
				opt := Options{LeafSize: c.leaf, Gram: c.gram, Workers: workers}
				if weights != nil {
					opt.Weights = append([]float64(nil), weights...)
				}
				return geom.NewPoints(append([]float64(nil), coords...), c.dim), opt
			}

			pts, opt := input(1)
			ref, err := build(pts, opt, false)
			if err != nil {
				t.Fatal(err)
			}
			if c.lattice && c.n >= forkCutoff && oversizedLeaves(ref.Root.Left) == 0 {
				t.Fatal("no single-point leaf below the root's left child: the guard never fires in a forked subtree")
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := Build(input(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("workers=%d", workers), ref, got)
			}
			if c.dim == 2 {
				// The generic loops under fork-join, too.
				pts, opt := input(8)
				got, err := build(pts, opt, false)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "generic loops, workers=8", ref, got)
			}
		})
	}
}

// oversizedLeaves counts the leaves under n holding more than one point
// when every point in them is the same: the nodes the degenerate guard kept.
func oversizedLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		if n.Size() > 1 && rectIsPoint(n.Rect) {
			return 1
		}
		return 0
	}
	return oversizedLeaves(n.Left) + oversizedLeaves(n.Right)
}

func rectIsPoint(r geom.Rect) bool {
	for k := range r.Min {
		if r.Min[k] != r.Max[k] {
			return false
		}
	}
	return true
}

// requireIdentical fails unless got is want bit for bit: node count, point
// and weight order, and every node's range, shape and statistics.
func requireIdentical(t *testing.T, label string, want, got *Tree) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d nodes, want %d", label, got.NumNodes(), want.NumNodes())
	}
	same := func(what string, i int, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)",
				label, what, i, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	sameBits := func(what string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values, want %d", label, what, len(a), len(b))
		}
		for i := range a {
			same(what, i, a[i], b[i])
		}
	}
	sameBits("point coordinates", got.Pts.Coords, want.Pts.Coords)
	sameBits("weights", got.Weights, want.Weights)

	nodes := 0
	var walk func(g, w *Node)
	walk = func(g, w *Node) {
		nodes++
		if g.Start != w.Start || g.End != w.End || g.IsLeaf() != w.IsLeaf() {
			t.Fatalf("%s: node [%d,%d) leaf=%v, want [%d,%d) leaf=%v",
				label, g.Start, g.End, g.IsLeaf(), w.Start, w.End, w.IsLeaf())
		}
		sameBits("Rect.Min", g.Rect.Min, w.Rect.Min)
		sameBits("Rect.Max", g.Rect.Max, w.Rect.Max)
		sameBits("Center", g.Center, w.Center)
		sameBits("SumP", g.SumP, w.SumP)
		sameBits("SumNorm2P", g.SumNorm2P, w.SumNorm2P)
		sameBits("Gram", g.Gram, w.Gram)
		same("SumW", g.Start, g.SumW, w.SumW)
		same("SumNorm2", g.Start, g.SumNorm2, w.SumNorm2)
		same("SumNorm4", g.Start, g.SumNorm4, w.SumNorm4)
		same("Radius", g.Start, g.Radius, w.Radius)
		if (g.Gram == nil) != (w.Gram == nil) {
			t.Fatalf("%s: node [%d,%d) Gram presence differs", label, g.Start, g.End)
		}
		if !g.IsLeaf() {
			walk(g.Left, w.Left)
			walk(g.Right, w.Right)
		}
	}
	walk(got.Root, want.Root)
	if nodes != got.NumNodes() {
		t.Fatalf("%s: walked %d nodes, NumNodes reports %d", label, nodes, got.NumNodes())
	}
}
