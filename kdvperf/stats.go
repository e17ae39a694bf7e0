package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// minSampleMs is the shortest sample a percentile may be taken over; paths
// faster than this are timed in batches and reported as throughput.
const minSampleMs = 1.0

var errFewSamples = errors.New("too few samples beyond the percentile")

// nearestRank returns the p-quantile (nearest rank) of samples, refusing
// one with fewer than ten samples beyond it.
func nearestRank(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	n := len(samples)
	rank := max(1, int(math.Ceil(p*float64(n))))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d, have %d)",
			100*p, n, errFewSamples, minBeyond, n-rank)
	}
	return sorted(samples)[rank-1], nil
}

// percentile is nearestRank for timed samples in ms: it also refuses a
// percentile taken over samples shorter than a millisecond.
func percentile(samples []float64, p float64) (float64, error) {
	if err := overFloor(samples, p); err != nil {
		return 0, err
	}
	return nearestRank(samples, p)
}

// batchPercentile is percentile for calls timed in batches: perCall[i] is
// the per-call time of a batch that took batchMs[i]. The ten-beyond rule
// applies to the calls, the millisecond floor to the batches.
func batchPercentile(perCall, batchMs []float64, p float64) (float64, error) {
	if err := overFloor(batchMs, p); err != nil {
		return 0, err
	}
	return nearestRank(perCall, p)
}

func overFloor(samples []float64, p float64) error {
	for _, s := range samples {
		if s < minSampleMs {
			return fmt.Errorf("p%g: sample of %.3f ms is under %g ms; time such paths in batches",
				100*p, s, minSampleMs)
		}
	}
	return nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the middle two) of xs; it is used
// for repeated set-ups and host readings, never for request latencies.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
