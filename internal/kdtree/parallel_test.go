package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

// TestBuildWorkersIdentity: the level-order build must be the reference
// build (a serial, depth-first recursion with the generic loops and the
// textbook Hoare partition), bit for bit, at every worker count. Every row
// is built once by refBuild and then by Build at each worker count; all
// must agree on the node count and height, the point and weight order and
// every array's bits. Sizes straddle the goroutine grain and the partition
// block, and the lattice rows put thousands of copies of each point in the
// data, so the single-point-leaf guard fires on levels the build spreads
// over goroutines.
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

			ref := refBuild(input(1))
			if c.lattice && oversizedLeaves(ref) == 0 {
				t.Fatal("no single-point leaf: the degenerate guard never fires")
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := Build(input(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("workers=%d", workers), ref, got)
			}
		})
	}
}

// oversizedLeaves counts the leaves holding more than one point when every
// point in them is the same: the nodes the degenerate guard kept.
func oversizedLeaves(t *Tree) int {
	count := 0
	for id := int32(0); id < int32(t.NumNodes()); id++ {
		if t.IsLeaf(id) && t.Size(id) > 1 && rectIsPoint(t.Rect(id)) {
			count++
		}
	}
	return count
}

func rectIsPoint(r geom.Rect) bool {
	for k := range r.Min {
		if r.Min[k] != r.Max[k] {
			return false
		}
	}
	return true
}

// requireIdentical fails unless got is want bit for bit: node count and
// height, point and weight order, and every array of the tree.
func requireIdentical(t *testing.T, label string, want, got *Tree) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.Height() != want.Height() {
		t.Fatalf("%s: %d nodes of height %d, want %d of height %d",
			label, got.NumNodes(), got.Height(), want.NumNodes(), want.Height())
	}
	if got.LeafSize != want.LeafSize || got.Dim() != want.Dim() {
		t.Fatalf("%s: leaf size %d, dim %d; want %d, %d", label, got.LeafSize, got.Dim(), want.LeafSize, want.Dim())
	}
	sameInts := func(what string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values, want %d", label, what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", label, what, i, a[i], b[i])
			}
		}
	}
	sameBits := func(what string, a, b []float64) {
		if len(a) != len(b) || (a == nil) != (b == nil) {
			t.Fatalf("%s: %s has %d values (nil %v), want %d (nil %v)", label, what, len(a), a == nil, len(b), b == nil)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)",
					label, what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
	}
	sameBits("point coordinates", got.Pts.Coords, want.Pts.Coords)
	sameBits("weights", got.Weights, want.Weights)
	sameInts("Left", got.Left, want.Left)
	sameInts("Right", got.Right, want.Right)
	sameInts("Start", got.Start, want.Start)
	sameInts("End", got.End, want.End)
	sameBits("RectMin", got.RectMin, want.RectMin)
	sameBits("RectMax", got.RectMax, want.RectMax)
	sameBits("Center", got.Center, want.Center)
	sameBits("SumP", got.SumP, want.SumP)
	sameBits("SumNorm2P", got.SumNorm2P, want.SumNorm2P)
	sameBits("SumW", got.SumW, want.SumW)
	sameBits("SumNorm2", got.SumNorm2, want.SumNorm2)
	sameBits("SumNorm4", got.SumNorm4, want.SumNorm4)
	sameBits("Radius", got.Radius, want.Radius)
	sameBits("Gram", got.Gram, want.Gram)
}
