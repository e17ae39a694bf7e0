package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

func TestBuildWeightValidation(t *testing.T) {
	pts := geom.NewPoints([]float64{0, 0, 1, 1}, 2)
	if _, err := Build(pts.Clone(), Options{Weights: []float64{1}}); err == nil {
		t.Error("mismatched weight length accepted")
	}
	if _, err := Build(pts.Clone(), Options{Weights: []float64{1, -2}}); err == nil {
		t.Error("negative weight accepted")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Build(pts.Clone(), Options{Weights: []float64{1, w}}); err == nil {
			t.Errorf("weight %g accepted", w)
		}
	}
}

func TestWeightsFollowPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 1000
	pts := randomPoints(rng, n, 2, 5)
	// Weight encodes the point's original x coordinate so we can verify the
	// pairing survives the build's reordering.
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		weights[i] = math.Abs(pts.At(i)[0]) + 1
	}
	tr, err := Build(pts, Options{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := math.Abs(tr.Pts.At(i)[0]) + 1
		if tr.WeightAt(i) != want {
			t.Fatalf("point %d weight %g, want %g — weights decoupled from points", i, tr.WeightAt(i), want)
		}
	}
}

func TestWeightAtUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tr, err := Build(randomPoints(rng, 50, 2, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.WeightAt(7) != 1 {
		t.Errorf("unweighted WeightAt = %g", tr.WeightAt(7))
	}
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
		// Pre-pair weights with point values for post-build recomputation.
		tr, err := Build(pts, Options{LeafSize: 12, Gram: true, Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]float64, dim)
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, dim)
			for i := range q {
				q[i] = rng.NormFloat64() * 5
			}
			tr.Walk(func(nd *Node) bool {
				var wantW, want2, want4 float64
				for i := nd.Start; i < nd.End; i++ {
					w := tr.WeightAt(i)
					d2 := geom.Dist2(q, tr.Pts.At(i))
					wantW += w
					want2 += w * d2
					want4 += w * d2 * d2
				}
				if relErr(nd.SumW, wantW) > 1e-12 {
					t.Fatalf("dim=%d SumW = %g, want %g", dim, nd.SumW, wantW)
				}
				if relErr(nd.SumDist2(q, scratch), want2) > 1e-9 {
					t.Fatalf("dim=%d weighted SumDist2 = %g, want %g", dim, nd.SumDist2(q, scratch), want2)
				}
				if relErr(nd.SumDist4(q, scratch), want4) > 1e-8 {
					t.Fatalf("dim=%d weighted SumDist4 = %g, want %g", dim, nd.SumDist4(q, scratch), want4)
				}
				return nd.Size() > 40
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
	tr, err := Build(pts, Options{Gram: true, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.SumW != float64(n/2) {
		t.Errorf("SumW = %g, want %d", tr.Root.SumW, n/2)
	}
	q := []float64{0.5, -0.5}
	scratch := make([]float64, 2)
	var want2 float64
	for i := 0; i < tr.Pts.Len(); i++ {
		want2 += tr.WeightAt(i) * geom.Dist2(q, tr.Pts.At(i))
	}
	if relErr(tr.Root.SumDist2(q, scratch), want2) > 1e-9 {
		t.Errorf("weighted SumDist2 = %g, want %g", tr.Root.SumDist2(q, scratch), want2)
	}
}
