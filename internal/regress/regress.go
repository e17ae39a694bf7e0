// Package regress implements Nadaraya–Watson kernel regression with the
// same bound machinery as εKDV — the "kernel regression" item in the QUAD
// paper's future-work list. The estimator at a query q is the ratio
//
//	ŷ(q) = Σ y_i·K(q, p_i) / Σ K(q, p_i)
//
// whose numerator and denominator are both kernel aggregates. The
// denominator is a plain KDV aggregate; the numerator is a WEIGHTED
// aggregate with weights y_i, which the weighted kd-tree statistics support
// directly — except that responses may be negative, so the numerator is
// split into its positive and negative parts,
//
//	N(q) = N⁺(q) − N⁻(q),   N±(q) = Σ max(±y_i, 0)·K(q, p_i),
//
// each of which is a non-negative weighted aggregate with valid lower/upper
// bounds. Interval arithmetic then brackets the ratio, and the three
// refiners (N⁺, N⁻, D) are advanced — most uncertain first — until the
// bracket's width is within the requested tolerance of the prediction.
package regress

import (
	"fmt"
	"math"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// Config parameterizes the regressor.
type Config struct {
	Kernel kernel.Kernel
	// Gamma is the kernel distance scale (must be positive).
	Gamma    float64
	Method   bounds.Method
	LeafSize int
}

// Regressor predicts responses by locally weighted averaging.
type Regressor struct {
	den *engine.FlatEngine // Σ K — the density aggregate
	pos *engine.FlatEngine // Σ y⁺·K, nil if no positive responses
	neg *engine.FlatEngine // Σ y⁻·K, nil if no negative responses
	dim int
	// yMin/yMax bound every prediction (a weighted average of responses).
	yMin, yMax float64
}

// New fits a regressor to (X, y). X is a flat point buffer; y must have one
// response per point.
func New(x geom.Points, y []float64, cfg Config) (*Regressor, error) {
	n := x.Len()
	if n == 0 {
		return nil, fmt.Errorf("regress: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("regress: %d responses for %d points", len(y), n)
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("regress: gamma must be positive, got %g", cfg.Gamma)
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("regress: non-finite response %g at index %d", v, i)
		}
	}
	r := &Regressor{dim: x.Dim, yMin: y[0], yMax: y[0]}
	pos := make([]float64, n)
	neg := make([]float64, n)
	var hasPos, hasNeg bool
	for i, v := range y {
		if v > 0 {
			pos[i] = v
			hasPos = true
		} else if v < 0 {
			neg[i] = -v
			hasNeg = true
		}
		if v < r.yMin {
			r.yMin = v
		}
		if v > r.yMax {
			r.yMax = v
		}
	}

	build := func(weights []float64) (*engine.FlatEngine, error) {
		ev, err := bounds.NewEvaluator(cfg.Kernel, cfg.Gamma, 1, cfg.Method, x.Dim)
		if err != nil {
			return nil, err
		}
		tree, err := kdtree.Build(x.Clone(), kdtree.Options{
			LeafSize: cfg.LeafSize, Gram: ev.NeedsGram(), Weights: weights,
		})
		if err != nil {
			return nil, err
		}
		return engine.NewFlat(tree, ev)
	}
	var err error
	if r.den, err = build(nil); err != nil {
		return nil, err
	}
	if hasPos {
		if r.pos, err = build(pos); err != nil {
			return nil, err
		}
	}
	if hasNeg {
		if r.neg, err = build(neg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Dim returns the feature dimensionality.
func (r *Regressor) Dim() int { return r.dim }

// Predict returns ŷ(q) with |result − ŷ(q)| ≤ tol·(1 + |ŷ(q)|): the three
// aggregates are refined until the ratio bracket is that narrow. ok is
// false when the local density underflows to zero (no kernel mass at q —
// the estimator is undefined there).
func (r *Regressor) Predict(q []float64, tol float64) (value float64, ok bool, err error) {
	if len(q) != r.dim {
		return 0, false, fmt.Errorf("regress: query has dim %d, want %d", len(q), r.dim)
	}
	if tol <= 0 {
		tol = 1e-6
	}
	den := r.den.Clone().StartRefine(q)
	var pos, neg *engine.Refiner
	if r.pos != nil {
		pos = r.pos.Clone().StartRefine(q)
	}
	if r.neg != nil {
		neg = r.neg.Clone().StartRefine(q)
	}

	refBounds := func(rf *engine.Refiner) (float64, float64) {
		if rf == nil {
			return 0, 0
		}
		return rf.Bounds()
	}
	for {
		dLB, dUB := den.Bounds()
		if dUB <= 0 {
			// No kernel mass reaches q.
			return 0, false, nil
		}
		pLB, pUB := refBounds(pos)
		nLB, nUB := refBounds(neg)
		numLB := pLB - nUB
		numUB := pUB - nLB
		// Ratio bracket: numerator interval over denominator interval, with
		// the prediction capped by the response range (an NW estimate is a
		// convex combination of the y_i).
		lo, hi := r.yMin, r.yMax
		if dLB > 0 {
			l, h := ratioBracket(numLB, numUB, dLB, dUB)
			if l > lo {
				lo = l
			}
			if h < hi {
				hi = h
			}
		}
		mid := (lo + hi) / 2
		if hi-lo <= 2*tol*(1+math.Abs(mid)) {
			return mid, true, nil
		}
		// Refine whichever aggregate is most uncertain, scaled into
		// prediction units: numerator gaps divide by dLB; the denominator
		// gap matters in proportion to the prediction magnitude.
		best := den
		bestScore := (dUB - dLB) * math.Max(math.Abs(mid), 1)
		if pos != nil && !pos.Exhausted() {
			if s := pUB - pLB; s > bestScore || best.Exhausted() {
				best, bestScore = pos, s
			}
		}
		if neg != nil && !neg.Exhausted() {
			if s := nUB - nLB; s > bestScore || best.Exhausted() {
				best, bestScore = neg, s
			}
		}
		if best.Exhausted() {
			// Everything exact and the bracket still wide: numerically
			// degenerate (density underflow); report the midpoint.
			return mid, dUB > 0, nil
		}
		best.Step()
	}
}

// ratioBracket returns the range of num/den over num ∈ [numLB, numUB],
// den ∈ [dLB, dUB] with 0 < dLB ≤ dUB.
func ratioBracket(numLB, numUB, dLB, dUB float64) (lo, hi float64) {
	candidates := [4]float64{numLB / dLB, numLB / dUB, numUB / dLB, numUB / dUB}
	lo, hi = candidates[0], candidates[0]
	for _, c := range candidates[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return lo, hi
}
