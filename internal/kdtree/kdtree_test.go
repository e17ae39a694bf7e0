package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

func randomPoints(rng *rand.Rand, n, dim int, scale float64) geom.Points {
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = rng.NormFloat64() * scale
	}
	return geom.NewPoints(coords, dim)
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(geom.Points{Dim: 2}, Options{}); err == nil {
		t.Fatal("Build over empty set should fail")
	}
}

func TestBuildSinglePoint(t *testing.T) {
	pts := geom.NewPoints([]float64{1, 2}, 2)
	tr, err := Build(pts, Options{Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || !tr.IsLeaf(0) || tr.Size(0) != 1 {
		t.Fatalf("single-point tree: nodes=%d leaf=%v size=%d", tr.NumNodes(), tr.IsLeaf(0), tr.Size(0))
	}
	if tr.SumW[0] != 1 {
		t.Errorf("Count = %g", tr.SumW[0])
	}
}

func TestBuildAllIdenticalPoints(t *testing.T) {
	coords := make([]float64, 0, 200)
	for i := 0; i < 100; i++ {
		coords = append(coords, 3, 4)
	}
	tr, err := Build(geom.NewPoints(coords, 2), Options{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Identical points cannot be split; the root must be a (large) leaf and
	// the build must not recurse forever.
	if tr.NumNodes() != 1 || !tr.IsLeaf(0) {
		t.Error("identical-point tree should be a single leaf")
	}
	if tr.Size(0) != 100 {
		t.Errorf("Size = %d", tr.Size(0))
	}
}

func TestLeafSizesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPoints(rng, 5000, 2, 10)
	tr, err := Build(pts, Options{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr.Walk(func(id int32) bool {
		if tr.IsLeaf(id) && tr.Size(id) > 16 {
			t.Errorf("leaf of size %d exceeds LeafSize 16", tr.Size(id))
		}
		if l, r := tr.Left[id], tr.Right[id]; !tr.IsLeaf(id) {
			if tr.Start[l] != tr.Start[id] || tr.End[r] != tr.End[id] || tr.End[l] != tr.Start[r] {
				t.Errorf("children do not partition [%d,%d): left=[%d,%d) right=[%d,%d)",
					tr.Start[id], tr.End[id], tr.Start[l], tr.End[l], tr.Start[r], tr.End[r])
			}
		}
		return true
	})
}

func TestPointsPreservedUpToPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	orig := randomPoints(rng, 1000, 3, 5)
	// Sum per dimension is permutation-invariant.
	var wantSum [3]float64
	for i := 0; i < orig.Len(); i++ {
		p := orig.At(i)
		for j := 0; j < 3; j++ {
			wantSum[j] += p[j]
		}
	}
	tr, err := Build(orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var gotSum [3]float64
	for i := 0; i < tr.Pts.Len(); i++ {
		p := tr.Pts.At(i)
		for j := 0; j < 3; j++ {
			gotSum[j] += p[j]
		}
	}
	for j := 0; j < 3; j++ {
		if math.Abs(gotSum[j]-wantSum[j]) > 1e-6 {
			t.Errorf("dim %d: sum %g after build, want %g", j, gotSum[j], wantSum[j])
		}
	}
}

func TestRectsContainPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 2000, 2, 3)
	tr, err := Build(pts, Options{LeafSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	tr.Walk(func(id int32) bool {
		for i := int(tr.Start[id]); i < int(tr.End[id]); i++ {
			if !tr.Rect(id).Contains(tr.Pts.At(i)) {
				t.Fatalf("node [%d,%d) rect does not contain point %d", tr.Start[id], tr.End[id], i)
			}
		}
		return true
	})
}

func TestNumNodesAndHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	pts := randomPoints(rng, 1024, 2, 1)
	tr, err := Build(pts, Options{LeafSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() < 1024 {
		t.Errorf("NumNodes = %d, want ≥ 1024 (one per point at LeafSize 1)", tr.NumNodes())
	}
	h := tr.Height()
	if h < 10 || h > 40 {
		t.Errorf("Height = %d, implausible for 1024 points with median splits", h)
	}
}

func TestWalkPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pts := randomPoints(rng, 500, 2, 1)
	tr, err := Build(pts, Options{LeafSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	tr.Walk(func(int32) bool {
		count++
		return false // prune immediately
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d nodes, want 1", count)
	}
}

func TestDefaultLeafSize(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randomPoints(rng, 500, 2, 1)
	tr, err := Build(pts, Options{LeafSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.LeafSize != DefaultLeafSize {
		t.Errorf("LeafSize = %d, want default %d", tr.LeafSize, DefaultLeafSize)
	}
	if tr.Dim() != 2 {
		t.Errorf("Dim = %d", tr.Dim())
	}
	if tr.HasGram() {
		t.Error("HasGram should be false")
	}
}

func TestSelectNthOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pts := randomPoints(rng, 501, 1, 10)
	tr := &Tree{Pts: pts, LeafSize: 1, dim: 1}
	nth := 250
	tr.selectNth(0, pts.Len(), nth, 0)
	pivot := pts.At(nth)[0]
	for i := 0; i < nth; i++ {
		if pts.At(i)[0] > pivot {
			t.Fatalf("element %d (%g) left of nth exceeds pivot %g", i, pts.At(i)[0], pivot)
		}
	}
	for i := nth + 1; i < pts.Len(); i++ {
		if pts.At(i)[0] < pivot {
			t.Fatalf("element %d (%g) right of nth below pivot %g", i, pts.At(i)[0], pivot)
		}
	}
}

// TestCheckLen: node ranges and ids are int32, so Build must refuse more
// than math.MaxInt32 points, or a leaf size whose tree can have more than
// math.MaxInt32 nodes, rather than wrap them. A buffer that size does not
// fit a test, so the check Build runs first is tested directly.
func TestCheckLen(t *testing.T) {
	if math.MaxInt < math.MaxInt32+1 {
		t.Skip("int cannot count more than math.MaxInt32 points")
	}
	for _, c := range []struct {
		n, leaf int
		ok      bool
	}{
		{math.MaxInt32 + 1, DefaultLeafSize, false},
		{math.MaxInt32, DefaultLeafSize, true},
		// At leaf size 1 a tree over n distinct points has 2n−1 nodes.
		{1<<30 + 1, 1, false},
		{1 << 30, 1, true},
		{0, DefaultLeafSize, false},
	} {
		if err := checkLen(c.n, c.leaf); (err == nil) != c.ok {
			t.Errorf("checkLen(%d, %d) = %v, want ok = %v", c.n, c.leaf, err, c.ok)
		}
	}
}

// TestNodeBound: nodeBound is the exact node count of a tree over distinct
// points, which the build allocates its structure arrays for.
func TestNodeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{1, 2, 3, 30, 31, 61, 62, 1000, 4097, 20000} {
		for _, leaf := range []int{1, 2, 4, 30, 31} {
			tr, err := Build(randomPoints(rng, n, 2, 1), Options{LeafSize: leaf})
			if err != nil {
				t.Fatal(err)
			}
			if got := nodeBound(n, leaf); got != tr.NumNodes() {
				t.Errorf("nodeBound(%d, %d) = %d, build made %d nodes", n, leaf, got, tr.NumNodes())
			}
		}
	}
}

// TestPartitionMatchesHoare: the block partition must leave the points, the
// weights and both scan positions exactly as the textbook Hoare loop does,
// on inputs either side of the block size and spanning 0 to 3 blocks from
// each end, with all-equal, sorted, reverse-sorted, lattice and random
// coordinates, weighted and not.
func TestPartitionMatchesHoare(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	fills := map[string]func(i, n int) float64{
		"equal":   func(int, int) float64 { return 1.5 },
		"sorted":  func(i, _ int) float64 { return float64(i) },
		"reverse": func(i, n int) float64 { return float64(n - i) },
		"lattice": func(int, int) float64 { return math.Floor(4*rng.Float64()) / 4 },
		"random":  func(int, int) float64 { return rng.NormFloat64() },
	}
	var sizes []int
	for blocks := 0; blocks <= 7; blocks++ {
		for _, delta := range []int{-1, 0, 1, 17} {
			if n := blocks*blockSize + delta; n >= 1 {
				sizes = append(sizes, n)
			}
		}
	}
	for name, fill := range fills {
		for _, n := range sizes {
			for _, weighted := range []bool{false, true} {
				for _, dim := range []int{1, 2, 3} {
					label := fmt.Sprintf("%s/n%d/d%d/weighted=%v", name, n, dim, weighted)
					coords := make([]float64, n*dim)
					for i := range coords {
						coords[i] = fill(i/dim, n)
					}
					var weights []float64
					if weighted {
						weights = make([]float64, n)
						for i := range weights {
							weights[i] = float64(i)
						}
					}
					axis := rng.Intn(dim)
					pivot := coords[rng.Intn(n)*dim+axis]

					got := &Tree{Pts: geom.NewPoints(append([]float64(nil), coords...), dim), dim: dim}
					if weights != nil {
						got.Weights = append([]float64(nil), weights...)
					}
					gi, gj := got.partition(0, n, axis, pivot)

					ref := &refBuilder{pts: geom.NewPoints(append([]float64(nil), coords...), dim)}
					if weights != nil {
						ref.weights = append([]float64(nil), weights...)
					}
					coord := func(i int) float64 { return ref.pts.Coords[i*dim+axis] }
					wi, wj := hoare(coord, ref.swap, 0, n, pivot)

					if gi != wi || gj != wj {
						t.Fatalf("%s: scans end at (%d, %d), Hoare's at (%d, %d)", label, gi, gj, wi, wj)
					}
					for i := range coords {
						if math.Float64bits(got.Pts.Coords[i]) != math.Float64bits(ref.pts.Coords[i]) {
							t.Fatalf("%s: coordinate %d is %v, Hoare's %v", label, i, got.Pts.Coords[i], ref.pts.Coords[i])
						}
					}
					for i := range weights {
						if got.Weights[i] != ref.weights[i] {
							t.Fatalf("%s: weight %d is %v, Hoare's %v", label, i, got.Weights[i], ref.weights[i])
						}
					}
				}
			}
		}
	}
}
