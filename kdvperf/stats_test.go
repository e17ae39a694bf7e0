package main

import (
	"errors"
	"testing"
)

func ramp(n int, from float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = from + float64(n-i) // descending, so the helper must sort
	}
	return xs
}

// TestPercentileRefusesThinTails: a percentile needs ten samples beyond it.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		p      float64
		n      int
		refuse bool
	}{
		{0.5, 19, true},
		{0.5, 20, false},
		{0.9, 99, true},
		{0.9, 100, false},
		{0.99, 999, true},
		{0.99, 1000, false},
	} {
		_, err := percentile(ramp(tc.n, 10), tc.p)
		if tc.refuse && !errors.Is(err, errFewSamples) {
			t.Errorf("p%g of %d samples: err %v, want a refusal", 100*tc.p, tc.n, err)
		}
		if !tc.refuse && err != nil {
			t.Errorf("p%g of %d samples: %v", 100*tc.p, tc.n, err)
		}
	}
}

// TestPercentileRefusesSubMillisecond: sub-millisecond samples are timed
// in batches instead.
func TestPercentileRefusesSubMillisecond(t *testing.T) {
	xs := ramp(100, 10)
	xs[42] = 0.4
	if _, err := percentile(xs, 0.5); err == nil {
		t.Fatal("percentile over a 0.4 ms sample was accepted")
	}
}

// TestPercentileNearestRank pins the rank convention.
func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(100, 0) // values 1..100
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90} {
		got, err := percentile(xs, p)
		if err != nil || got != want {
			t.Errorf("p%g = %v, %v; want %v", 100*p, got, err, want)
		}
	}
}
