package kdtree

import (
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
	if !tr.Root.IsLeaf() || tr.Root.Size() != 1 {
		t.Fatalf("single-point tree: leaf=%v size=%d", tr.Root.IsLeaf(), tr.Root.Size())
	}
	if tr.Root.SumW != 1 {
		t.Errorf("Count = %g", tr.Root.SumW)
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
	if !tr.Root.IsLeaf() {
		t.Error("identical-point tree should be a single leaf")
	}
	if tr.Root.Size() != 100 {
		t.Errorf("Size = %d", tr.Root.Size())
	}
}

func TestLeafSizesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPoints(rng, 5000, 2, 10)
	tr, err := Build(pts, Options{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr.Walk(func(n *Node) bool {
		if n.IsLeaf() && n.Size() > 16 {
			t.Errorf("leaf of size %d exceeds LeafSize 16", n.Size())
		}
		if !n.IsLeaf() {
			if n.Left.Start != n.Start || n.Right.End != n.End || n.Left.End != n.Right.Start {
				t.Errorf("children do not partition [%d,%d): left=[%d,%d) right=[%d,%d)",
					n.Start, n.End, n.Left.Start, n.Left.End, n.Right.Start, n.Right.End)
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
	tr.Walk(func(n *Node) bool {
		for i := n.Start; i < n.End; i++ {
			if !n.Rect.Contains(tr.Pts.At(i)) {
				t.Fatalf("node [%d,%d) rect does not contain point %d", n.Start, n.End, i)
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
	tr.Walk(func(n *Node) bool {
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
	tr := &Tree{Pts: pts, LeafSize: 1}
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
