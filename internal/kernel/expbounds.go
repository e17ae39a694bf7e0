package kernel

import "math"

// This file implements the envelope mathematics for the profile exp(−x) used
// by the Gaussian kernel: the KARL linear bounds (paper Section 3.3) and the
// QUAD quadratic bounds (paper Section 4).
//
// All functions take an interval [xmin, xmax] with 0 ≤ xmin ≤ xmax that is
// guaranteed to contain every transformed value x_i of the node's points.

// degenerateX is the interval width below which a bounding interval is
// treated as a single point: the profile is then evaluated directly and the
// interpolation formulas (which divide by xmax−xmin) are bypassed.
const degenerateX = 1e-12

// Linear holds the coefficients of a linear envelope m·x + k.
type Linear struct{ M, K float64 }

// Eval evaluates the linear function at x.
func (l Linear) Eval(x float64) float64 { return l.M*x + l.K }

// Quadratic holds the coefficients of a quadratic envelope a·x² + b·x + c.
type Quadratic struct{ A, B, C float64 }

// Eval evaluates the quadratic at x.
func (q Quadratic) Eval(x float64) float64 { return (q.A*x+q.B)*x + q.C }

// ExpChordUpper returns the KARL linear upper bound of exp(−x) on
// [xmin, xmax]: the chord through (xmin, e^{−xmin}) and (xmax, e^{−xmax}).
// Because exp(−x) is convex, the chord lies above it on the interval.
func ExpChordUpper(xmin, xmax float64) Linear {
	w := xmax - xmin
	if w < degenerateX {
		return Linear{M: 0, K: Exp1(-xmin)}
	}
	eMin := Exp1(-xmin)
	// (e^{−xmax} − e^{−xmin})/w = e^{−xmin}·expm1(−w)/w, which stays
	// accurate when w is small (the direct difference cancels).
	m := eMin * math.Expm1(-w) / w
	return Linear{M: m, K: eMin - m*xmin}
}

// ExpTangentLower returns the KARL linear lower bound of exp(−x): the
// tangent line at t, EL(x) = −e^{−t}·x + (1+t)·e^{−t}. By convexity the
// tangent lies below exp(−x) everywhere, so no interval is needed.
func ExpTangentLower(t float64) Linear {
	et := Exp1(-t)
	return Linear{M: -et, K: (1 + t) * et}
}

// ExpQuadUpper returns the QUAD quadratic upper bound of exp(−x) on
// [xmin, xmax] (paper Section 4.2, Theorem 1). The parabola passes through
// both interval endpoints of the profile and uses the optimal curvature
//
//	a_u* = (e^{−xmin} − (xmax − xmin + 1)·e^{−xmax}) / (xmax − xmin)²
//
// derived from the Theorem 1 slope condition
// dQU/dx|_{xmax} ≤ −e^{−xmax}: writing QU(x) = a_u·(x−xmin)(x−xmax) +
// chord(x), the condition gives a_u ≤ a_u* and the bound tightens as a_u
// grows, so a_u = a_u* is optimal. (1 − (w+1)e^{−w}) ≥ 0 for w ≥ 0, so
// a_u* ≥ 0 and QU never exceeds the KARL chord, the a_u = 0 special case.
func ExpQuadUpper(xmin, xmax float64) Quadratic {
	w := xmax - xmin
	if w < degenerateX {
		return Quadratic{A: 0, B: 0, C: Exp1(-xmin)}
	}
	eMin := Exp1(-xmin)
	em1 := math.Expm1(-w)
	// a_u* = e^{−xmin}·(1 − (w+1)e^{−w})/w². The parenthesized factor is
	// ~w²/2 for small w and cancels catastrophically if evaluated
	// directly; −(w + (w+1)·expm1(−w)) is the stable form.
	g := -(w + (w+1)*em1)
	au := eMin * g / (w * w)
	if au < 0 {
		// g ≥ 0 analytically; guard against rounding by falling back to
		// the chord, which is always a valid envelope.
		au = 0
	}
	// Chord slope and the cu interpolation term, both in cancellation-free
	// forms: (e^{−xmax}−e^{−xmin})/w = eMin·expm1(−w)/w and
	// (eMin·xmax − eMax·xmin)/w = eMin·(w − xmin·expm1(−w))/w.
	m := eMin * em1 / w
	bu := m - au*(xmin+xmax)
	cu := eMin*(w-xmin*em1)/w + au*xmin*xmax
	return Quadratic{A: au, B: bu, C: cu}
}

// ExpQuadLower returns the QUAD quadratic lower bound of exp(−x) on
// [xmin, xmax] (paper Section 4.3): the parabola tangent to exp(−x) at t and
// passing through (xmax, e^{−xmax}). t is clamped into [xmin, xmax]; the
// paper's recommended choice is t* = mean of the x_i (Equation 3).
//
// The resulting parabola satisfies m_l·x + k_l ≤ QL(x) ≤ exp(−x) on the
// interval, i.e. it is at least as tight as the KARL tangent line.
func ExpQuadLower(xmin, xmax, t float64) Quadratic {
	if t < xmin {
		t = xmin
	}
	if t > xmax {
		t = xmax
	}
	w := xmax - t
	if w < degenerateX {
		// Tangent point at the right endpoint: the parabola degenerates to
		// the tangent line at xmax, still a valid lower bound by convexity.
		l := ExpTangentLower(xmax)
		return Quadratic{A: 0, B: l.M, C: l.K}
	}
	et := Exp1(-t)
	// a_l = e^{−t}·(e^{−u} + u − 1)/u² with u = xmax − t. The numerator is
	// ~u²/2 for small u and cancels catastrophically if evaluated as
	// e^{−xmax} + (xmax−1−t)e^{−t}; expm1(−u) + u is the stable form.
	al := et * (math.Expm1(-w) + w) / (w * w)
	if al < 0 {
		// The factor is ≥ 0 analytically; guard against rounding by
		// falling back to the plain tangent line.
		l := ExpTangentLower(t)
		return Quadratic{A: 0, B: l.M, C: l.K}
	}
	bl := -et - 2*t*al
	cl := (1+t)*et + t*t*al
	return Quadratic{A: al, B: bl, C: cl}
}
