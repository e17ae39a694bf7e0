package bounds

import (
	"math"

	"github.com/quadkdv/quad/internal/kernel"
)

// This file holds the scalar cores of every bound family: each takes the
// node's aggregate statistics as plain float64s (or slices of them), so the
// formulas stay separate from how flat.go fetches the statistics.

// clampVals floors lb and ub at 0, caps ub at w·|P|·K(0), and repairs any
// floating-point inversion (lb marginally above ub) by widening to the safe
// side. A contribution is never negative, so a negative ub (the quadratic
// forms' rounding in the subnormal tail) is no bound at all.
func (e *Evaluator) clampVals(sumW, lb, ub float64) (float64, float64) {
	cap := e.Weight * sumW * e.profMax
	if lb < 0 {
		lb = 0
	}
	if ub < 0 {
		ub = 0
	}
	if ub > cap {
		ub = cap
	}
	if lb > ub {
		lb = ub
	}
	return lb, ub
}

// minMaxVals is the aKDE/tKDC rectangle-distance bound (Equations 5–6).
func (e *Evaluator) minMaxVals(sumW, xmin, xmax float64) (lb, ub float64) {
	w := e.Weight * sumW
	return w * e.Kern.Profile(xmax), w * e.Kern.Profile(xmin)
}

// linearGaussianVals is KARL's bound for exp(−γ·dist²) (paper Section 3.3,
// Lemma 1): with x_i = γ·dist², the aggregated linear envelope is
// w·(m·γ·Σdist² + k·|P|), given sumX = γ·Σdist², which is O(d) from the
// node statistics.
func (e *Evaluator) linearGaussianVals(sumW, sumX, xmin, xmax float64) (lb, ub float64) {
	up := kernel.ExpChordUpper(xmin, xmax)
	ub = e.Weight * (up.M*sumX + up.K*sumW)
	t := e.tangentPoint(sumX/sumW, xmin, xmax) // Equation 3 by default
	lo := kernel.ExpTangentLower(t)
	lb = e.Weight * (lo.M*sumX + lo.K*sumW)
	return lb, ub
}

// quadGaussianVals implements paper Section 4: quadratic envelopes of
// exp(−x) with x = γ·dist², aggregated through sumX = γ·Σdist² and
// sumX2 = γ²·Σdist⁴ (Lemma 3, O(d²)).
func (e *Evaluator) quadGaussianVals(sumW, sumX, sumX2, xmin, xmax float64) (lb, ub float64) {
	qu := kernel.ExpQuadUpper(xmin, xmax)
	ub = e.Weight * (qu.A*sumX2 + qu.B*sumX + qu.C*sumW)
	t := e.tangentPoint(sumX/sumW, xmin, xmax) // t* of Equation 3 by default
	ql := kernel.ExpQuadLower(xmin, xmax, t)
	lb = e.Weight * (ql.A*sumX2 + ql.B*sumX + ql.C*sumW)
	return lb, ub
}

// quadTriangularVals implements paper Section 5.2 for max(1 − γ·dist, 0)
// given sumX2 = γ²·Σdist². The caller has already handled the xmin ≥ 1
// early-out.
func (e *Evaluator) quadTriangularVals(sumW, sumX2, xmin, xmax float64) (lb, ub float64) {
	if qu, ok := kernel.TriangularQuadUpper(xmin, xmax); ok {
		ub = e.Weight * (qu.A*sumX2 + qu.C*sumW)
	} else {
		ub = e.Weight * sumW * e.Kern.Profile(xmin)
	}
	// The optimal shifted parabola (Theorem 2) is a valid lower bound for
	// every x ≥ 0; it beats the min-max bound whenever all x_i ≤ 1
	// (Lemma 6), and we keep the better of the two in general.
	lb = kernel.TriangularQuadLowerValue(e.Weight, sumW, sumX2)
	if mm := e.Weight * sumW * e.Kern.Profile(xmax); mm > lb {
		lb = mm
	}
	return lb, ub
}

// quadCosineVals implements paper appendix 9.6.1–9.6.2 for cos(γ·dist)
// with support γ·dist ≤ π/2, given sumX2 = γ²·Σdist². The caller has already
// handled the support early-outs.
func (e *Evaluator) quadCosineVals(sumW, sumX2, xmin, xmax float64) (lb, ub float64) {
	if qu, ok := kernel.CosineQuadUpper(xmin, xmax); ok {
		ub = e.Weight * (qu.A*sumX2 + qu.C*sumW)
	} else {
		ub = e.Weight * sumW * e.Kern.Profile(xmin)
	}
	if ql, ok := kernel.CosineQuadLower(xmin, xmax); ok {
		lb = e.Weight * (ql.A*sumX2 + ql.C*sumW)
	} else {
		lb = e.Weight * sumW * e.Kern.Profile(xmax)
	}
	return lb, ub
}

// quadExponentialVals implements paper appendix 9.6.3–9.6.4 for
// exp(−γ·dist) given sumX2 = γ²·Σdist².
func (e *Evaluator) quadExponentialVals(sumW, sumX2, xmin, xmax float64) (lb, ub float64) {
	if qu, ok := kernel.ExpDistQuadUpper(xmin, xmax); ok {
		ub = e.Weight * (qu.A*sumX2 + qu.C*sumW)
	} else {
		ub = e.Weight * sumW * e.Kern.Profile(xmin)
	}
	// t* = sqrt(γ²·Σdist²/|P|) (Equation 18), clamped into the interval so
	// the tangent point stays within the node's reachable x range.
	t := clampT(math.Sqrt(sumX2/sumW), xmin, xmax)
	if ql, ok := kernel.ExpDistQuadLower(t); ok {
		lb = e.Weight * (ql.A*sumX2 + ql.C*sumW)
	} else {
		lb = e.Weight * sumW * e.Kern.Profile(xmax)
	}
	return lb, ub
}

// quadEpanechnikovVals: the profile max(1−x², 0) coincides with the
// quadratic 1−x² on its support, so the aggregate is EXACT (lb = ub)
// whenever the whole node lies inside the support; otherwise 1−x² still
// lower-bounds the profile everywhere and min-max supplies the upper bound.
// The caller has handled xmin ≥ 1.
func (e *Evaluator) quadEpanechnikovVals(sumW, sumX2, xmin, xmax float64) (lb, ub float64) {
	exactish := kernel.EpanechnikovQuadLowerValue(e.Weight, sumW, sumX2)
	if xmax <= 1 {
		return exactish, exactish
	}
	lb = exactish
	if mm := e.Weight * sumW * e.Kern.Profile(xmax); mm > lb {
		lb = mm
	}
	ub = e.Weight * sumW * e.Kern.Profile(xmin)
	return lb, ub
}

// quadQuarticVals: with y = x², the profile is (1−y)² on its support, a
// quadratic in y — so the aggregate 1 − 2Σx² + Σx⁴ is EXACT when the node
// lies inside the support and remains a valid upper bound beyond it. Σx⁴
// reuses the Σdist⁴ statistic (O(d²)). The caller has handled xmin ≥ 1.
func (e *Evaluator) quadQuarticVals(sumW, sumX2, sumX4, xmin, xmax float64) (lb, ub float64) {
	ub = kernel.QuarticQuadUpperValue(e.Weight, sumW, sumX2, sumX4)
	if xmax <= 1 {
		return ub, ub
	}
	lb = e.Weight * sumW * e.Kern.Profile(xmax)
	return lb, ub
}

// rectLinearGaussianVals evaluates the KARL envelopes tile-uniformly. Every
// x_i(q) = γ·dist(q, p_i)² stays inside [xmin, xmax] for q in the rect, so
// the chord/tangent envelopes hold pointwise; their aggregates are linear in
// sumX(q) = γ·Σ w·dist²(q), whose exact rect-range γ·[s2lo, s2hi] comes from
// kdtree.Tree.RectSumDist2. Both envelope slopes are ≤ 0 (the profile
// decreases), so the upper bound is worst at the low end and the lower bound
// at the high end; the tangent sits at the worst case's mean so the lower
// envelope is tight exactly where it binds.
func (e *Evaluator) rectLinearGaussianVals(sumW, s2lo, s2hi, xmin, xmax float64) (lb, ub float64) {
	sxLo, sxHi := e.Gamma*s2lo, e.Gamma*s2hi
	up := kernel.ExpChordUpper(xmin, xmax)
	ub = e.Weight * (math.Max(up.M*sxLo, up.M*sxHi) + up.K*sumW)
	t := e.tangentPoint(sxHi/sumW, xmin, xmax)
	lo := kernel.ExpTangentLower(t)
	lb = e.Weight * (math.Min(lo.M*sxLo, lo.M*sxHi) + lo.K*sumW)
	return lb, ub
}

// accumulateEnvelopeVals folds one node's tile-valid envelope bounds into the
// aggregate quadratic forms (see Evaluator.FlatAccumulateRectEnvelope).
// nCenter and nSumP are the node's moment center and Σw·(p−C) vectors.
func (e *Evaluator) accumulateEnvelopeVals(sumW, sumNorm2 float64, nCenter, nSumP []float64,
	s2lo, s2hi, xmin, xmax float64, center []float64, lbEnv, ubEnv *TileEnvelope) {
	up := kernel.ExpChordUpper(xmin, xmax)
	// Tangent at the midpoint of the rect-range of the mean statistic: the
	// tangent is a valid lower envelope anywhere, and the midpoint keeps it
	// tight across the whole tile rather than at one extreme.
	t := e.tangentPoint(e.Gamma*(s2lo+s2hi)/(2*sumW), xmin, xmax)
	lo := kernel.ExpTangentLower(t)

	// Re-center the node moments onto the tile's center T:
	//   Σ w·(p−T)       = w·(C_n−T) + a_P
	//   Σ w·‖p−T‖²      = b_P + 2·(C_n−T)·a_P + w·‖C_n−T‖²
	var cc2, dotCS float64
	for i := range center {
		dc := nCenter[i] - center[i]
		cc2 += dc * dc
		dotCS += dc * nSumP[i]
	}
	cPrime := sumNorm2 + 2*dotCS + sumW*cc2
	gm := e.Gamma
	w := e.Weight
	for i := range center {
		s := sumW*(nCenter[i]-center[i]) + nSumP[i]
		lbEnv.B[i] += w * lo.M * gm * (-2 * s)
		ubEnv.B[i] += w * up.M * gm * (-2 * s)
	}
	lbEnv.A += w * lo.M * gm * sumW
	lbEnv.C += w * (lo.M*gm*cPrime + lo.K*sumW)
	ubEnv.A += w * up.M * gm * sumW
	ubEnv.C += w * (up.M*gm*cPrime + up.K*sumW)
}

// envelopeGapVals is the rect-maximum chord-vs-tangent envelope gap (see
// Evaluator.FlatRectEnvelopeGap).
func (e *Evaluator) envelopeGapVals(sumW, s2lo, s2hi, xmin, xmax float64) float64 {
	up := kernel.ExpChordUpper(xmin, xmax)
	t := e.tangentPoint(e.Gamma*(s2lo+s2hi)/(2*sumW), xmin, xmax)
	lo := kernel.ExpTangentLower(t)
	dM, dK := up.M-lo.M, up.K-lo.K
	g := dM*e.Gamma*s2lo + dK*sumW
	if g2 := dM*e.Gamma*s2hi + dK*sumW; g2 > g {
		g = g2
	}
	if g < 0 {
		g = 0
	}
	return e.Weight * g
}
