package kdtree_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
)

// The node moments a build accumulates are read through the tree's query
// methods; these tests check those against brute force.

func randomPoints(rng *rand.Rand, n, dim int, scale float64) geom.Points {
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = rng.NormFloat64() * scale
	}
	return geom.NewPoints(coords, dim)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// buildFlat builds a kd-tree over pts.
func buildFlat(t *testing.T, pts geom.Points, opt kdtree.Options) *kdtree.Tree {
	t.Helper()
	tr, err := kdtree.Build(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestNodeStatsMatchBruteForce is the load-bearing test: every node's
// centered moments must reproduce the brute-force Σdist² and Σdist⁴ for
// arbitrary queries.
func TestNodeStatsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, dim := range []int{1, 2, 3, 5} {
		pts := randomPoints(rng, 600, dim, 4)
		tr := buildFlat(t, pts, kdtree.Options{LeafSize: 10, Gram: true})
		scratch := make([]float64, dim)
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, dim)
			for i := range q {
				q[i] = rng.NormFloat64() * 6
			}
			tr.Walk(func(id int32) bool {
				var want2, want4 float64
				for i := int(tr.Start[id]); i < int(tr.End[id]); i++ {
					d2 := geom.Dist2(q, tr.Pts.At(i))
					want2 += d2
					want4 += d2 * d2
				}
				got2 := tr.SumDist2(id, q, scratch)
				f2, got4 := tr.SumDist24(id, q, scratch)
				if relErr(got2, want2) > 1e-9 {
					t.Fatalf("dim=%d SumDist2 = %g, want %g (node size %d)", dim, got2, want2, tr.Size(id))
				}
				if relErr(got4, want4) > 1e-8 {
					t.Fatalf("dim=%d SumDist24 Σdist⁴ = %g, want %g (node size %d)", dim, got4, want4, tr.Size(id))
				}
				if f2 != got2 {
					t.Fatalf("dim=%d SumDist24 Σdist² = %g, SumDist2 = %g", dim, f2, got2)
				}
				// Only descend a few levels; children repeat the check.
				return tr.Size(id) > 50
			})
		}
	}
}

// TestSumDist4FarQueryStability checks the centered-moment formulation stays
// accurate when the query is far from the node (where the naive uncentered
// expansion loses digits).
func TestSumDist4FarQueryStability(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	coords := make([]float64, 0, 400)
	for i := 0; i < 200; i++ {
		coords = append(coords, 1000+rng.Float64(), 2000+rng.Float64())
	}
	pts := geom.NewPoints(coords, 2)
	tr := buildFlat(t, pts, kdtree.Options{LeafSize: 16, Gram: true})
	q := []float64{-5000, 7000}
	scratch := make([]float64, 2)
	var want float64
	for i := 0; i < pts.Len(); i++ {
		d2 := geom.Dist2(q, tr.Pts.At(i))
		want += d2 * d2
	}
	_, got := tr.SumDist24(0, q, scratch)
	if relErr(got, want) > 1e-10 {
		t.Errorf("far-query Σdist⁴ rel err %g (got %g, want %g)", relErr(got, want), got, want)
	}
}

func TestSumDist4WithoutGramPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pts := randomPoints(rng, 50, 2, 1)
	tr := buildFlat(t, pts, kdtree.Options{Gram: false})
	defer func() {
		if recover() == nil {
			t.Error("SumDist24 without Gram did not panic")
		}
	}()
	tr.SumDist24(0, []float64{0, 0}, make([]float64, 2))
}

// TestWeightedStatsMatchBruteForce: weighted node moments must reproduce the
// weighted Σw·dist² and Σw·dist⁴.
func TestWeightedStatsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, dim := range []int{1, 2, 4} {
		n := 500
		pts := randomPoints(rng, n, dim, 3)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 5
		}
		tr := buildFlat(t, pts, kdtree.Options{LeafSize: 12, Gram: true, Weights: weights})
		scratch := make([]float64, dim)
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, dim)
			for i := range q {
				q[i] = rng.NormFloat64() * 5
			}
			tr.Walk(func(id int32) bool {
				var wantW, want2, want4 float64
				for i := int(tr.Start[id]); i < int(tr.End[id]); i++ {
					w := tr.WeightAt(i)
					d2 := geom.Dist2(q, tr.Pts.At(i))
					wantW += w
					want2 += w * d2
					want4 += w * d2 * d2
				}
				if relErr(tr.SumW[id], wantW) > 1e-12 {
					t.Fatalf("dim=%d SumW = %g, want %g", dim, tr.SumW[id], wantW)
				}
				if got := tr.SumDist2(id, q, scratch); relErr(got, want2) > 1e-9 {
					t.Fatalf("dim=%d weighted SumDist2 = %g, want %g", dim, got, want2)
				}
				if _, got := tr.SumDist24(id, q, scratch); relErr(got, want4) > 1e-8 {
					t.Fatalf("dim=%d weighted Σdist⁴ = %g, want %g", dim, got, want4)
				}
				return tr.Size(id) > 40
			})
		}
	}
}

// TestZeroWeightPointsContributeNothing: zero-weight points must be inert in
// every statistic.
func TestZeroWeightPointsContributeNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 200
	pts := randomPoints(rng, n, 2, 2)
	weights := make([]float64, n)
	for i := 0; i < n; i += 2 {
		weights[i] = 1
	}
	tr := buildFlat(t, pts, kdtree.Options{Gram: true, Weights: weights})
	if tr.SumW[0] != float64(n/2) {
		t.Errorf("SumW = %g, want %d", tr.SumW[0], n/2)
	}
	q := []float64{0.5, -0.5}
	scratch := make([]float64, 2)
	var want2 float64
	for i := 0; i < tr.Pts.Len(); i++ {
		want2 += tr.WeightAt(i) * geom.Dist2(q, tr.Pts.At(i))
	}
	if got := tr.SumDist2(0, q, scratch); relErr(got, want2) > 1e-9 {
		t.Errorf("weighted SumDist2 = %g, want %g", got, want2)
	}
}
