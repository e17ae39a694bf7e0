package kernel

import "math"

// This file implements the restricted quadratic envelopes Q(x) = a·x² + c
// for the distance-based kernels (paper Section 5 and appendix 9.6):
// triangular, cosine and exponential, plus the partially exact envelopes of
// the Epanechnikov and quartic extension kernels. Here x = γ·dist, so the
// aggregated bound Σ w·(a·(γ·dist)² + c) = w·a·γ²·Σdist² + w·c·|P| needs
// only the O(d)-computable Σdist² (Lemma 4).
//
// Each envelope constructor returns (a, c) plus ok=false when the restricted
// form cannot be applied on the given interval (the caller then falls back
// to the min-max bounds of Equations 5–6).

// chordDen returns den = xmax² − xmin², the x² width of the interval the
// upper envelopes below interpolate their profile across, and whether it is
// wide enough to do so. Below degenerateX, or below 2⁻²⁰·xmax², it is not:
// den then carries a rounding error of about an ulp of xmax², a large share
// of it, and the slope (f(xmax)−f(xmin))/den and c_u cancel
// catastrophically, which can put the envelope below the profile. The
// caller falls back to the min-max bounds, which are nearly tight on so
// narrow an interval.
func chordDen(xmin, xmax float64) (den float64, ok bool) {
	den = xmax*xmax - xmin*xmin
	return den, den >= degenerateX && den > 0x1p-20*(xmax*xmax)
}

// AxC is a restricted quadratic a·x² + c (the b coefficient is fixed at 0).
type AxC struct{ A, C float64 }

// Eval evaluates the restricted quadratic at x.
func (q AxC) Eval(x float64) float64 { return q.A*x*x + q.C }

// TriangularQuadUpper returns the quadratic upper bound of max(1−x, 0) on
// [xmin, xmax] (paper Section 5.2.1): the concave parabola a_u·x² + c_u
// through (xmin, max(1−xmin,0)) and (xmax, max(1−xmax,0)). Being concave and
// agreeing with the profile's chord at the endpoints it dominates the
// profile on the interval, and it is tighter than the min-max upper bound
// max(1−xmin, 0) (Lemma 5).
func TriangularQuadUpper(xmin, xmax float64) (AxC, bool) {
	den, ok := chordDen(xmin, xmax)
	if !ok {
		return AxC{}, false
	}
	fMin := math.Max(1-xmin, 0)
	fMax := math.Max(1-xmax, 0)
	au := (fMax - fMin) / den
	cu := (xmax*xmax*fMin - xmin*xmin*fMax) / den
	return AxC{A: au, C: cu}, true
}

// TriangularQuadLowerValue returns the paper's closed-form optimal quadratic
// lower bound VALUE for the triangular kernel aggregate (Theorem 2 +
// Lemma 6): substituting a_l* = −sqrt(|P| / (4·Σx²)) and c_l = 1 + 1/(4a_l)
// into F_Q gives
//
//	F_Q(q, QL) = w·|P| − w·sqrt(|P|·Σ x_i²)
//
// where Σx² = γ²·Σdist². The envelope a_l·x²+c_l is tangent to the line 1−x
// from below, hence ≤ 1−x ≤ max(1−x,0) for every x ≥ 0, so the value is a
// correct lower bound regardless of whether all x_i ≤ 1; it is tighter than
// the min-max bound whenever all x_i ≤ 1 (Lemma 6) and the caller clamps it
// at max(min-max lower bound, 0) otherwise.
func TriangularQuadLowerValue(w, count, sumX2 float64) float64 {
	if count <= 0 {
		return 0
	}
	return w*count - w*math.Sqrt(count*sumX2)
}

// CosineQuadUpper returns the quadratic upper bound of cos(x) on
// [xmin, xmax] ⊆ [0, π/2] (paper Section 9.6.1, Lemma 9): the parabola
// a_u·x² + c_u through (xmin, cos xmin) and (xmax, cos xmax). ok is false
// when the interval is degenerate or extends beyond the support π/2, in
// which case min-max bounds apply.
func CosineQuadUpper(xmin, xmax float64) (AxC, bool) {
	if xmax > math.Pi/2 {
		return AxC{}, false
	}
	den, ok := chordDen(xmin, xmax)
	if !ok {
		return AxC{}, false
	}
	cMin := math.Cos(xmin)
	cMax := math.Cos(xmax)
	au := (cMax - cMin) / den
	cu := (xmax*xmax*cMin - xmin*xmin*cMax) / den
	return AxC{A: au, C: cu}, true
}

// CosineQuadLower returns the quadratic lower bound of cos(x) on
// [xmin, xmax] ⊆ [0, π/2] (paper Section 9.6.2, Lemma 10): the parabola
// through (xmax, cos xmax) with matching slope there,
//
//	a_l = −sin(xmax) / (2·xmax),  c_l = cos(xmax) + xmax·sin(xmax)/2.
func CosineQuadLower(xmin, xmax float64) (AxC, bool) {
	if xmax > math.Pi/2 || xmax < degenerateX {
		return AxC{}, false
	}
	s := math.Sin(xmax)
	al := -s / (2 * xmax)
	cl := math.Cos(xmax) + xmax*s/2
	return AxC{A: al, C: cl}, true
}

// ExpDistQuadUpper returns the quadratic upper bound of exp(−x) on
// [xmin, xmax] for the exponential kernel (paper Section 9.6.3, Lemma 11):
// the concave parabola a_u·x² + c_u through (xmin, e^{−xmin}) and
// (xmax, e^{−xmax}), which dominates the chord and hence the convex profile.
func ExpDistQuadUpper(xmin, xmax float64) (AxC, bool) {
	den, ok := chordDen(xmin, xmax)
	if !ok {
		return AxC{}, false
	}
	eMin := Exp1(-xmin)
	eMax := Exp1(-xmax)
	au := (eMax - eMin) / den
	cu := (xmax*xmax*eMin - xmin*xmin*eMax) / den
	return AxC{A: au, C: cu}, true
}

// ExpDistQuadLower returns the quadratic lower bound of exp(−x) for the
// exponential kernel (paper Section 9.6.4, Lemma 12): the concave parabola
// tangent to exp(−x) at t > 0,
//
//	a_l = −e^{−t}/(2t),  c_l = (t+2)·e^{−t}/2.
//
// Being concave it lies below its tangent line at t, which by convexity of
// exp(−x) lies below the profile — so the envelope is valid for every x ≥ 0.
// The paper's recommended tangent point is t* = sqrt(γ²·Σdist²/|P|)
// (Equation 18), clamped here to stay strictly positive.
func ExpDistQuadLower(t float64) (AxC, bool) {
	if t < degenerateX {
		return AxC{}, false
	}
	et := Exp1(-t)
	return AxC{A: -et / (2 * t), C: (t + 2) * et / 2}, true
}

// EpanechnikovQuadLowerValue returns a lower-bound VALUE for the
// Epanechnikov aggregate. The profile max(1−x², 0) dominates the plain
// quadratic 1−x² everywhere, so Σ w·(1 − x_i²) = w·|P| − w·Σx² is always a
// valid lower bound, and it is exact when all x_i ≤ 1.
func EpanechnikovQuadLowerValue(w, count, sumX2 float64) float64 {
	return w*count - w*sumX2
}

// QuarticQuadUpperValue returns an upper-bound VALUE for the quartic
// (biweight) aggregate. With y = x², the profile is (1−y)² for y ≤ 1 and 0
// beyond; (1−y)² ≥ max(1−y,0)² for every y ≥ 0, so
//
//	Σ w·(1 − 2·x_i² + x_i⁴) = w·(|P| − 2·Σx² + Σx⁴)
//
// is always a valid upper bound and is exact when all x_i ≤ 1. It needs
// Σx⁴ = γ⁴·Σdist⁴, the same O(d²) statistic the Gaussian bounds use.
func QuarticQuadUpperValue(w, count, sumX2, sumX4 float64) float64 {
	return w * (count - 2*sumX2 + sumX4)
}
