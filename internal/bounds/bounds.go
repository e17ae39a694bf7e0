// Package bounds implements the node-level lower/upper bound functions for
// kernel aggregation (paper Sections 3–5). All methods share the indexing
// framework of Section 3.2; they differ only in how LB_R(q) and UB_R(q) are
// derived from a node's bounding rectangle and aggregate statistics:
//
//	MinMax     — w·|P|·K(maxdist) / w·|P|·K(mindist), the aKDE [17] and
//	             tKDC [13] bounds (Equations 5–6).
//	Linear     — KARL's [7] linear envelopes of exp(−x): chord upper bound,
//	             tangent lower bound (Section 3.3). Gaussian kernel only.
//	Quadratic  — QUAD's quadratic envelopes: Section 4 (Gaussian, O(d²))
//	             and Section 5 / appendix 9.6 (triangular, cosine,
//	             exponential, O(d)); extension kernels get partially exact
//	             envelopes where the profile shape permits.
//
// Every bound is floored at 0 and capped at w·|P|·K(0); these clamps never
// loosen a bound (the aggregate always lies in that range) and protect
// downstream termination tests from stray negative values.
package bounds

import (
	"fmt"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kernel"
)

// Method selects a bound family.
type Method int

const (
	// MinMax is the aKDE/tKDC rectangle-distance bound.
	MinMax Method = iota
	// Linear is KARL's linear bound (Gaussian only).
	Linear
	// Quadratic is QUAD's quadratic bound — this paper's contribution.
	Quadratic
)

// String returns the method's canonical name.
func (m Method) String() string {
	switch m {
	case MinMax:
		return "minmax"
	case Linear:
		return "linear"
	case Quadratic:
		return "quadratic"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod maps a name back to a Method.
func ParseMethod(name string) (Method, error) {
	for _, m := range []Method{MinMax, Linear, Quadratic} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("bounds: unknown method %q", name)
}

// Evaluator computes node bounds for one (kernel, γ, w, method)
// configuration. It owns a scratch buffer, so a single Evaluator must not be
// shared across goroutines; Clone one per worker instead.
type Evaluator struct {
	Kern   kernel.Kernel
	Gamma  float64
	Weight float64
	Method Method

	needGram bool
	useBall  bool
	tChoice  TangentChoice
	scratch  []float64
	// profMax is Kern.ProfileMax(), the K(0) every bound is capped by,
	// computed once: for the Gaussian and exponential kernels it is an exp.
	profMax float64
}

// TangentChoice selects the tangent point t of the Gaussian lower-bound
// envelopes (paper Equation 3 picks the mean of the x_i; the alternatives
// exist for the DESIGN.md ablation).
type TangentChoice int

const (
	// TangentMean is t* = (γ/|P|)·Σdist² — the paper's choice (Equation 3).
	TangentMean TangentChoice = iota
	// TangentMidpoint is t = (x_min + x_max)/2.
	TangentMidpoint
	// TangentXMax is t = x_max (the quadratic lower bound degenerates to
	// the chord-anchored parabola at the right endpoint).
	TangentXMax
)

// SetTangentChoice selects the lower-bound tangent strategy (default
// TangentMean, the paper's Equation 3).
func (e *Evaluator) SetTangentChoice(tc TangentChoice) { e.tChoice = tc }

// tangentPoint computes the configured tangent point, clamped into
// [xmin, xmax]. mean is the precomputed Equation 3 value.
func (e *Evaluator) tangentPoint(mean, xmin, xmax float64) float64 {
	switch e.tChoice {
	case TangentMidpoint:
		return (xmin + xmax) / 2
	case TangentXMax:
		return xmax
	default:
		return clampT(mean, xmin, xmax)
	}
}

// NewEvaluator validates the configuration and returns an evaluator for
// points of dimension dim.
func NewEvaluator(kern kernel.Kernel, gamma, weight float64, method Method, dim int) (*Evaluator, error) {
	if !kern.Valid() {
		return nil, fmt.Errorf("bounds: invalid kernel %d", int(kern))
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("bounds: gamma must be positive, got %g", gamma)
	}
	if weight <= 0 {
		return nil, fmt.Errorf("bounds: weight must be positive, got %g", weight)
	}
	if method == Linear && !kern.HasLinearBounds() {
		return nil, fmt.Errorf("bounds: linear (KARL) bounds are not available for the %s kernel (paper Section 5.1)", kern)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("bounds: dimension must be positive, got %d", dim)
	}
	e := &Evaluator{
		Kern:    kern,
		Gamma:   gamma,
		Weight:  weight,
		Method:  method,
		scratch: make([]float64, dim),
		profMax: kern.ProfileMax(),
	}
	e.needGram = method == Quadratic && (kern == kernel.Gaussian || kern == kernel.Quartic)
	return e, nil
}

// Clone returns an independent evaluator with its own scratch buffer.
func (e *Evaluator) Clone() *Evaluator {
	c := *e
	c.scratch = make([]float64, len(e.scratch))
	return &c
}

// NeedsGram reports whether this evaluator requires the kd-tree's Gram
// statistic (Gaussian and quartic quadratic bounds do).
func (e *Evaluator) NeedsGram() bool { return e.needGram }

// SetBallTightening toggles combining the node's bounding-ball distances
// with the MBR distances when deriving [x_min, x_max]: the intersection of
// the two enclosures gives a narrower distance interval (hence tighter
// envelopes for every method) at the cost of one extra distance computation
// per node. The paper's baselines use the MBR only, so this is off by
// default and exercised as an ablation.
func (e *Evaluator) SetBallTightening(on bool) { e.useBall = on }

// BallTightening reports whether ball tightening is enabled.
func (e *Evaluator) BallTightening() bool { return e.useBall }

// TileEnvelope is an aggregate envelope bound over a set of nodes for every
// query point in a tile: a single quadratic form in the centered query
// q' = q − center,
//
//	E(q) = A·‖q'‖² + B·q' + C.
//
// Because the Gaussian envelope bounds are linear in the node statistic
// Σ w·dist²(q) — itself a quadratic in q — the per-node bounds of an entire
// frontier collapse into one such form per side (see
// Evaluator.FlatAccumulateRectEnvelope). Evaluating it costs O(d) per pixel
// regardless of how many nodes were accumulated, which is what removes the
// per-pixel re-bounding of frontier nodes from the render hot path.
type TileEnvelope struct {
	A float64
	B []float64
	C float64
}

// Reset zeroes the form for dim-dimensional queries, reusing the coefficient
// buffer.
func (t *TileEnvelope) Reset(dim int) {
	t.A, t.C = 0, 0
	if cap(t.B) < dim {
		t.B = make([]float64, dim)
		return
	}
	t.B = t.B[:dim]
	for i := range t.B {
		t.B[i] = 0
	}
}

// Eval evaluates the form at q with the given centering point.
func (t *TileEnvelope) Eval(q, center []float64) float64 {
	var qn2, dot float64
	for i := range q {
		qc := q[i] - center[i]
		qn2 += qc * qc
		dot += t.B[i] * qc
	}
	return t.A*qn2 + dot + t.C
}

// SupportsEnvelope reports whether the evaluator can share envelope bounds
// tile-wide (FlatAccumulateRectEnvelope / FlatRectEnvelopeGap): an envelope
// method with a kernel that has KARL linear envelopes.
func (e *Evaluator) SupportsEnvelope() bool {
	return e.Method != MinMax && e.Kern.HasLinearBounds()
}

// CopyFrom overwrites the form with src, reusing the coefficient buffer.
func (t *TileEnvelope) CopyFrom(src *TileEnvelope) {
	t.A, t.C = src.A, src.C
	t.B = append(t.B[:0], src.B...)
}

// RangeRect returns the form's exact value range over an axis-aligned query
// rectangle. The form is separable per dimension, so each coordinate's
// quadratic A·u² + B_i·u is extremized independently (endpoints plus the
// interior vertex when it falls inside the interval).
func (t *TileEnvelope) RangeRect(rect geom.Rect, center []float64) (lo, hi float64) {
	lo, hi = t.C, t.C
	for i := range center {
		u0 := rect.Min[i] - center[i]
		u1 := rect.Max[i] - center[i]
		g0 := t.A*u0*u0 + t.B[i]*u0
		g1 := t.A*u1*u1 + t.B[i]*u1
		glo, ghi := g0, g1
		if g1 < g0 {
			glo, ghi = g1, g0
		}
		if t.A != 0 {
			if v := -t.B[i] / (2 * t.A); v > u0 && v < u1 {
				gv := t.A*v*v + t.B[i]*v
				if gv < glo {
					glo = gv
				}
				if gv > ghi {
					ghi = gv
				}
			}
		}
		lo += glo
		hi += ghi
	}
	return lo, hi
}

// clampT restricts a tangent/interpolation parameter into [xmin, xmax].
func clampT(t, xmin, xmax float64) float64 {
	if t < xmin {
		return xmin
	}
	if t > xmax {
		return xmax
	}
	return t
}

// ExactScan computes F_P(q) by a full sequential scan over pts — the EXACT
// baseline of the paper's evaluation (Table 6). weights may be nil for the
// uniform case; otherwise it must be parallel to pts.
func ExactScan(pts geom.Points, weights []float64, kern kernel.Kernel, gamma, weight float64, q []float64) float64 {
	var sum float64
	d := pts.Dim
	coords := pts.Coords
	n := pts.Len()
	for i := 0; i < n; i++ {
		row := coords[i*d : i*d+d]
		var dist2 float64
		for k, v := range q {
			dd := v - row[k]
			dist2 += dd * dd
		}
		kv := kern.Eval(gamma, dist2)
		if weights != nil {
			kv *= weights[i]
		}
		sum += kv
	}
	return weight * sum
}
