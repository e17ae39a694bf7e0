package bounds

import (
	"math"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// This file is the evaluator's node front end: each method fetches a
// kd-tree node's statistics from the tree's (SoA) arrays, derives the
// distance/moment aggregates through the tree's query methods, and feeds
// them to the scalar bound cores in vals.go.

// FlatBounds returns LB_R(q) ≤ F_R(q) ≤ UB_R(q) for node id.
func (e *Evaluator) FlatBounds(t *kdtree.Tree, id int32, q []float64) (lb, ub float64) {
	sumW := t.SumW[id]
	if sumW == 0 {
		// All-zero weights contribute nothing (and would otherwise produce
		// 0/0 in the tangent-point formulas).
		return 0, 0
	}
	mind2 := t.MinDist2(id, q)
	maxd2 := t.MaxDist2(id, q)
	if e.useBall {
		dc := math.Sqrt(t.Dist2Center(id, q))
		r := t.Radius[id]
		if bmin := dc - r; bmin > 0 {
			if b2 := bmin * bmin; b2 > mind2 {
				mind2 = b2
			}
		}
		bmax := dc + r
		if b2 := bmax * bmax; b2 < maxd2 {
			maxd2 = b2
		}
	}
	xmin := e.Kern.X(e.Gamma, mind2)
	xmax := e.Kern.X(e.Gamma, maxd2)

	switch e.Method {
	case MinMax:
		lb, ub = e.minMaxVals(sumW, xmin, xmax)
	case Linear:
		sumX := e.Gamma * t.SumDist2(id, q, e.scratch)
		lb, ub = e.linearGaussianVals(sumW, sumX, xmin, xmax)
	case Quadratic:
		lb, ub = e.flatQuadratic(t, id, q, xmin, xmax)
	default:
		panic("bounds: invalid method")
	}
	return e.clampVals(sumW, lb, ub)
}

// flatQuadratic dispatches QUAD's quadratic bounds by kernel: paper
// Section 4 for the Gaussian, aggregated through Σx = γ·Σdist² and
// Σx² = γ²·Σdist⁴ (Lemma 3, O(d²)); Section 5 and appendix 9.6 for the
// distance-based kernels, aggregated through Σx² = γ²·Σdist². The cosine
// envelopes assume 0 ≤ x ≤ π/2, exactly as the paper's construction does,
// so a node whose distance interval leaves the support falls back to
// min-max bounds.
func (e *Evaluator) flatQuadratic(t *kdtree.Tree, id int32, q []float64, xmin, xmax float64) (lb, ub float64) {
	sumW := t.SumW[id]
	switch e.Kern {
	case kernel.Gaussian:
		s2, s4 := t.SumDist24(id, q, e.scratch)
		sumX := e.Gamma * s2
		sumX2 := e.Gamma * e.Gamma * s4
		return e.quadGaussianVals(sumW, sumX, sumX2, xmin, xmax)
	case kernel.Triangular:
		if xmin >= 1 {
			return 0, 0
		}
		sumX2 := e.Gamma * e.Gamma * t.SumDist2(id, q, e.scratch)
		return e.quadTriangularVals(sumW, sumX2, xmin, xmax)
	case kernel.Cosine:
		if xmin >= math.Pi/2 {
			return 0, 0
		}
		if xmax > math.Pi/2 {
			return e.minMaxVals(sumW, xmin, xmax)
		}
		sumX2 := e.Gamma * e.Gamma * t.SumDist2(id, q, e.scratch)
		return e.quadCosineVals(sumW, sumX2, xmin, xmax)
	case kernel.Exponential:
		s2 := t.SumDist2(id, q, e.scratch)
		sumX2 := e.Gamma * e.Gamma * s2
		return e.quadExponentialVals(sumW, sumX2, xmin, xmax)
	case kernel.Epanechnikov:
		if xmin >= 1 {
			return 0, 0
		}
		sumX2 := e.Gamma * e.Gamma * t.SumDist2(id, q, e.scratch)
		return e.quadEpanechnikovVals(sumW, sumX2, xmin, xmax)
	case kernel.Quartic:
		if xmin >= 1 {
			return 0, 0
		}
		g2 := e.Gamma * e.Gamma
		s2, s4 := t.SumDist24(id, q, e.scratch)
		sumX2 := g2 * s2
		sumX4 := g2 * g2 * s4
		return e.quadQuarticVals(sumW, sumX2, sumX4, xmin, xmax)
	default: // Uniform: flat discontinuous profile, only min-max applies.
		return e.minMaxVals(sumW, xmin, xmax)
	}
}

// FlatRectBounds returns tile-uniform bounds on node id's contribution: for
// EVERY query point q inside the query rectangle,
//
//	lb ≤ F_R(q) ≤ ub.
//
// The baseline is the min-max bounds (Equations 5–6) evaluated over the
// rect-to-rect distance interval — valid for every kernel because each
// profile is non-increasing in distance — honoring the evaluator's
// ball-tightening setting. For the Gaussian kernel under an envelope method
// (Linear or Quadratic) the bounds are then tightened with the KARL
// chord/tangent envelopes: those aggregate through Σdist²(q) alone, and
// kdtree.Tree.RectSumDist2 gives that statistic's exact range over the
// rectangle, so the envelope evaluated at the adversarial end of the range
// is valid for every q in the rect. (The O(d²) quadratic envelopes
// additionally need Σdist⁴(q), whose rect-range is not available in closed
// form; the linear tightening is the shared-phase analogue of the method
// hierarchy.)
func (e *Evaluator) FlatRectBounds(t *kdtree.Tree, id int32, rect geom.Rect) (lb, ub float64) {
	sumW := t.SumW[id]
	if sumW == 0 {
		return 0, 0
	}
	mind2, maxd2 := t.RectDist2(id, rect, e.useBall)
	xmin := e.Kern.X(e.Gamma, mind2)
	xmax := e.Kern.X(e.Gamma, maxd2)
	lb, ub = e.minMaxVals(sumW, xmin, xmax)
	if e.Method != MinMax && e.Kern.HasLinearBounds() {
		s2lo, s2hi := t.RectSumDist2(id, rect)
		llb, lub := e.rectLinearGaussianVals(sumW, s2lo, s2hi, xmin, xmax)
		if llb > lb {
			lb = llb
		}
		if lub < ub {
			ub = lub
		}
	}
	return e.clampVals(sumW, lb, ub)
}

// FlatAccumulateRectEnvelope folds node id's tile-valid envelope bounds into
// the aggregate quadratic forms: afterwards, for every q in rect,
//
//	lbEnv(q) ≤ F_R(q) ≤ ubEnv(q)    (contribution of this node included).
//
// The construction fits the KARL chord/tangent envelopes once per node over
// the rect-wide x-interval (every x_i(q) stays inside it for q in the rect,
// so the envelopes hold pointwise), then substitutes the EXACT per-query
// statistic Σ w·dist²(q) = w·‖q'‖² − 2·q'·s' + c' (moments re-centered onto
// `center`) instead of its rect-worst value. The result is first-order exact
// in the query position — the residual gap is the envelope's curvature gap
// over the x-interval, second order in the interval width — while remaining
// a valid bound for every pixel of the tile.
//
// It returns false (accumulating nothing) when the evaluator has no linear
// envelopes to share: the MinMax method, or a kernel without KARL bounds.
// center must have the query dimension.
func (e *Evaluator) FlatAccumulateRectEnvelope(t *kdtree.Tree, id int32, rect geom.Rect, center []float64, lbEnv, ubEnv *TileEnvelope) bool {
	if !e.SupportsEnvelope() {
		return false
	}
	sumW := t.SumW[id]
	if sumW == 0 {
		return true
	}
	mind2, maxd2 := t.RectDist2(id, rect, e.useBall)
	xmin := e.Kern.X(e.Gamma, mind2)
	xmax := e.Kern.X(e.Gamma, maxd2)
	s2lo, s2hi := t.RectSumDist2(id, rect)
	d := t.Dim()
	o := int(id) * d
	e.accumulateEnvelopeVals(sumW, t.SumNorm2[id], t.Center[o:o+d:o+d], t.SumP[o:o+d:o+d],
		s2lo, s2hi, xmin, xmax, center, lbEnv, ubEnv)
	return true
}

// FlatRectEnvelopeGap returns the maximum over q in the rect of the gap
// between the chord upper and tangent lower envelope bounds that
// FlatAccumulateRectEnvelope would install for node id — the tile-wide
// uncertainty that collapsing the node into the envelope adds to every
// pixel. The gap is linear in the statistic Σ w·dist²(q), so its
// rect-maximum is attained at an end of the statistic's exact rect-range.
// Second order in the x-interval width, it is far smaller than the node's
// rect-uniform min-max gap, which is what lets the shared phase settle most
// of the frontier into the envelope within a fraction of the ε budget.
func (e *Evaluator) FlatRectEnvelopeGap(t *kdtree.Tree, id int32, rect geom.Rect) (float64, bool) {
	if !e.SupportsEnvelope() {
		return 0, false
	}
	sumW := t.SumW[id]
	if sumW == 0 {
		return 0, true
	}
	mind2, maxd2 := t.RectDist2(id, rect, e.useBall)
	xmin := e.Kern.X(e.Gamma, mind2)
	xmax := e.Kern.X(e.Gamma, maxd2)
	s2lo, s2hi := t.RectSumDist2(id, rect)
	return e.envelopeGapVals(sumW, s2lo, s2hi, xmin, xmax), true
}

// FlatExactNode computes the exact contribution F_R(q) of node id by
// scanning its point range — the leaf-refinement step of the indexing
// framework, with the batched 2-D Gaussian fast path of leafscan.go. The
// tree supplies the per-point weights (uniform 1 when unweighted).
func (e *Evaluator) FlatExactNode(t *kdtree.Tree, id int32, q []float64) float64 {
	pts := t.Pts
	d := pts.Dim
	coords := pts.Coords
	start, end := int(t.Start[id]), int(t.End[id])
	var sum float64
	if e.Kern == kernel.Gaussian && d == 2 {
		row := coords[start*2 : end*2]
		if t.Weights == nil {
			sum = gaussLeafSum2(row, q[0], q[1], e.Gamma)
		} else {
			sum = gaussLeafSumW2(row, t.Weights[start:end], q[0], q[1], e.Gamma)
		}
		return e.Weight * sum
	}
	if t.Weights == nil {
		for i := start; i < end; i++ {
			row := coords[i*d : i*d+d]
			var dist2 float64
			for k, v := range q {
				dd := v - row[k]
				dist2 += dd * dd
			}
			sum += e.Kern.Eval(e.Gamma, dist2)
		}
	} else {
		for i := start; i < end; i++ {
			row := coords[i*d : i*d+d]
			var dist2 float64
			for k, v := range q {
				dd := v - row[k]
				dist2 += dd * dd
			}
			sum += t.Weights[i] * e.Kern.Eval(e.Gamma, dist2)
		}
	}
	return e.Weight * sum
}
