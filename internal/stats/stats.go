// Package stats provides the experimental-setting statistics of the paper's
// Section 7.1: Scott's-rule bandwidth selection (γ and w), the μ/σ of
// KDE values over the pixel grid used to pick τKDV thresholds, and the
// relative-error quality metrics of Sections 7.4–7.5.
package stats

import (
	"fmt"
	"math"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kernel"
)

// Bandwidth holds a kernel parameterization: the γ that scales distances in
// the kernel argument and the per-point weight w.
type Bandwidth struct {
	Gamma  float64
	Weight float64
	// H is the underlying Scott's-rule bandwidth (data units).
	H float64
}

// ScottsRule derives (γ, w) from the data per Scott's rule [43], as the
// paper does (Section 7.1): per-dimension bandwidth h_j = σ_j · n^{−1/(d+4)},
// collapsed to a single isotropic h (the mean of the h_j, floored at a tiny
// positive value for degenerate data). For the Gaussian kernel
// γ = 1/(2h²) — the standard N(0, h²) exponent — and for the distance-based
// kernels γ = 1/h, making h the kernel radius scale. The weight is the KDE
// normalization w = 1/n (the color map only needs values proportional to
// density, so the dimension-dependent normalizing constant is folded into
// the color scale).
func ScottsRule(pts geom.Points, kern kernel.Kernel) Bandwidth {
	return ruleOfThumb(pts, kern, 1)
}

// SilvermanRule derives (γ, w) from Silverman's rule of thumb: Scott's
// bandwidth scaled by the kernel-efficiency factor (4/(d+2))^{1/(d+4)}.
func SilvermanRule(pts geom.Points, kern kernel.Kernel) Bandwidth {
	d := pts.Dim
	factor := pow(4/float64(d+2), 1/float64(d+4))
	return ruleOfThumb(pts, kern, factor)
}

// ruleOfThumb computes the shared σ·n^{−1/(d+4)} form with an extra
// multiplicative factor on h.
func ruleOfThumb(pts geom.Points, kern kernel.Kernel, factor float64) Bandwidth {
	n := pts.Len()
	d := pts.Dim
	if n == 0 {
		return Bandwidth{Gamma: 1, Weight: 1, H: 1}
	}
	// Per-dimension standard deviation.
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		p := pts.At(i)
		for j := 0; j < d; j++ {
			mean[j] += p[j]
		}
	}
	for j := 0; j < d; j++ {
		mean[j] /= float64(n)
	}
	variance := make([]float64, d)
	for i := 0; i < n; i++ {
		p := pts.At(i)
		for j := 0; j < d; j++ {
			dd := p[j] - mean[j]
			variance[j] += dd * dd
		}
	}
	var h float64
	scale := factor * pow(float64(n), -1/float64(d+4))
	for j := 0; j < d; j++ {
		sigma := math.Sqrt(variance[j] / float64(n))
		h += sigma * scale
	}
	h /= float64(d)
	if h <= 0 || math.IsNaN(h) {
		h = 1e-9
	}
	b := Bandwidth{H: h, Weight: 1 / float64(n)}
	if kern.UsesSquaredDistance() {
		b.Gamma = 1 / (2 * h * h)
	} else {
		b.Gamma = 1 / h
	}
	return b
}

// pow returns x^y for x > 0 and 0 < |y| < ½ along math.Pow's
// fractional-exponent path, exp(|y|·ln x), inverted when y < 0, with
// kernel.Exp1 in place of math.Exp. On amd64 math.Exp takes an FMA code
// path on CPUs that have one, so math.Pow, and through it γ, would depend
// on the host; Exp1 gives the same bits on every amd64 host.
func pow(x, y float64) float64 {
	if y < 0 {
		return 1 / kernel.Exp1(-y*math.Log(x))
	}
	return kernel.Exp1(y * math.Log(x))
}

// MuSigma returns the mean μ and standard deviation σ of the supplied KDE
// values — the quantities the paper's τ sweep is expressed in
// (τ ∈ {μ−0.3σ, …, μ+0.3σ}, Section 7.2).
func MuSigma(values []float64) (mu, sigma float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mu += v
	}
	mu /= float64(len(values))
	for _, v := range values {
		d := v - mu
		sigma += d * d
	}
	sigma = math.Sqrt(sigma / float64(len(values)))
	return mu, sigma
}

// Thresholds materializes the paper's τ ladder μ + k·σ for the given
// multiples of σ (e.g. −0.2, −0.1, 0, 0.1, 0.2).
func Thresholds(mu, sigma float64, multiples []float64) []float64 {
	out := make([]float64, len(multiples))
	for i, m := range multiples {
		out[i] = mu + m*sigma
	}
	return out
}

// AvgRelativeError returns (1/|Q|)·Σ |R(q) − F(q)| / F(q), the quality
// measure of the progressive-framework experiment (Section 7.5). Pixels
// whose exact value is zero contribute 0 when the returned value is also
// zero and 1 otherwise (the bounded convention, avoiding division by zero).
func AvgRelativeError(approx, exact []float64) (float64, error) {
	if len(approx) != len(exact) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(approx), len(exact))
	}
	if len(exact) == 0 {
		return 0, fmt.Errorf("stats: empty value sets")
	}
	var sum float64
	for i, f := range exact {
		r := approx[i]
		if f == 0 {
			if r != 0 {
				sum++
			}
			continue
		}
		sum += math.Abs(r-f) / f
	}
	return sum / float64(len(exact)), nil
}

// FlooredAvgRelativeError returns (1/|Q|)·Σ |R(q) − F(q)| / max(F(q), floor).
// With floor = 0 it reduces to AvgRelativeError's strict ratio. A positive
// floor (typically a small fraction of the maximum density) keeps pixels in
// the far kernel tail — where F underflows toward 0 and any absolute
// deviation yields an astronomically large ratio — from dominating the
// average; the progressive-visualization experiment (Section 7.5) is only
// meaningful under such a floor when the visualized window includes
// effectively empty regions.
func FlooredAvgRelativeError(approx, exact []float64, floor float64) (float64, error) {
	if len(approx) != len(exact) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(approx), len(exact))
	}
	if len(exact) == 0 {
		return 0, fmt.Errorf("stats: empty value sets")
	}
	var sum float64
	for i, f := range exact {
		den := f
		if den < floor {
			den = floor
		}
		if den == 0 {
			if approx[i] != 0 {
				sum++
			}
			continue
		}
		sum += math.Abs(approx[i]-f) / den
	}
	return sum / float64(len(exact)), nil
}

// MaxRelativeError returns max_q |R(q) − F(q)| / F(q) with the same
// zero-value convention as AvgRelativeError — used to verify the ε
// guarantee (Section 7.4).
func MaxRelativeError(approx, exact []float64) (float64, error) {
	if len(approx) != len(exact) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(approx), len(exact))
	}
	if len(exact) == 0 {
		return 0, fmt.Errorf("stats: empty value sets")
	}
	var worst float64
	for i, f := range exact {
		r := approx[i]
		var e float64
		if f == 0 {
			if r != 0 {
				e = 1
			}
		} else {
			e = math.Abs(r-f) / f
		}
		if e > worst {
			worst = e
		}
	}
	return worst, nil
}

// Disagreement returns the fraction of positions where the two boolean
// classifications differ — the τKDV quality measure.
func Disagreement(a, b []bool) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("stats: empty classifications")
	}
	var diff int
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	return float64(diff) / float64(len(a)), nil
}
