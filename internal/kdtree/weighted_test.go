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
