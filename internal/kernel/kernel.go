// Package kernel defines the kernel functions supported by the library and
// the bound-coefficient mathematics at the heart of QUAD: linear (KARL-style)
// and quadratic (QUAD) lower/upper envelopes of each kernel profile over a
// distance interval.
//
// Every kernel is expressed through a scalar profile in a transformed
// variable x:
//
//	Gaussian:     K = exp(−γ·dist²)        x = γ·dist²   profile exp(−x)
//	Exponential:  K = exp(−γ·dist)         x = γ·dist    profile exp(−x)
//	Triangular:   K = max(1−γ·dist, 0)     x = γ·dist    profile max(1−x,0)
//	Cosine:       K = cos(γ·dist) [≤π/2γ]  x = γ·dist    profile cos(x)·1{x≤π/2}
//	Epanechnikov: K = max(1−(γ·dist)², 0)  x = γ·dist    profile max(1−x²,0)
//	Quartic:      K = max(1−(γ·dist)²,0)²  x = γ·dist    profile max(1−x²,0)²
//	Uniform:      K = 1{γ·dist ≤ 1}        x = γ·dist    profile 1{x≤1}
//
// The Gaussian uses the squared distance so that quadratic envelopes
// aggregate through Σdist² and Σdist⁴ (paper Section 4); the remaining
// kernels use the plain distance with restricted envelopes a·x²+c so that
// aggregation needs only Σdist² (paper Section 5).
package kernel

import (
	"fmt"
	"math"
)

// Kernel enumerates the supported kernel functions.
type Kernel int

const (
	// Gaussian is exp(−γ·dist²) — the paper's primary kernel (Equation 1).
	Gaussian Kernel = iota
	// Triangular is max(1 − γ·dist, 0) (Table 4).
	Triangular
	// Cosine is cos(γ·dist) for γ·dist ≤ π/2, else 0 (Table 4).
	Cosine
	// Exponential is exp(−γ·dist) (Table 4).
	Exponential
	// Epanechnikov is max(1 − (γ·dist)², 0) — an extension kernel.
	Epanechnikov
	// Quartic (biweight) is max(1 − (γ·dist)², 0)² — an extension kernel.
	Quartic
	// Uniform is 1 when γ·dist ≤ 1, else 0 — an extension kernel.
	Uniform

	numKernels
)

// All lists every supported kernel, in declaration order.
func All() []Kernel {
	ks := make([]Kernel, numKernels)
	for i := range ks {
		ks[i] = Kernel(i)
	}
	return ks
}

// String returns the kernel's canonical lowercase name.
func (k Kernel) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Triangular:
		return "triangular"
	case Cosine:
		return "cosine"
	case Exponential:
		return "exponential"
	case Epanechnikov:
		return "epanechnikov"
	case Quartic:
		return "quartic"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// Parse maps a name (as produced by String) back to a Kernel.
func Parse(name string) (Kernel, error) {
	for _, k := range All() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("kernel: unknown kernel %q", name)
}

// Valid reports whether k is one of the declared kernels.
func (k Kernel) Valid() bool { return k >= 0 && k < numKernels }

// UsesSquaredDistance reports whether the kernel's transformed variable is
// x = γ·dist² (true only for Gaussian) rather than x = γ·dist.
func (k Kernel) UsesSquaredDistance() bool { return k == Gaussian }

// SupportX returns the profile's support bound in x: the profile is
// identically zero for x > SupportX. Infinite-support kernels return +Inf.
func (k Kernel) SupportX() float64 {
	switch k {
	case Gaussian, Exponential:
		return math.Inf(1)
	case Cosine:
		return math.Pi / 2
	default: // Triangular, Epanechnikov, Quartic, Uniform
		return 1
	}
}

// Profile evaluates the kernel's scalar profile at x ≥ 0.
func (k Kernel) Profile(x float64) float64 {
	switch k {
	case Gaussian, Exponential:
		return Exp1(-x)
	case Triangular:
		if x >= 1 {
			return 0
		}
		return 1 - x
	case Cosine:
		if x >= math.Pi/2 {
			return 0
		}
		return math.Cos(x)
	case Epanechnikov:
		if x >= 1 {
			return 0
		}
		return 1 - x*x
	case Quartic:
		if x >= 1 {
			return 0
		}
		u := 1 - x*x
		return u * u
	case Uniform:
		if x > 1 {
			return 0
		}
		return 1
	default:
		panic("kernel: invalid kernel")
	}
}

// Eval evaluates K(q,p) given the squared distance dist² between q and p.
// Taking the squared distance avoids a square root for the Gaussian kernel,
// the common case.
func (k Kernel) Eval(gamma, dist2 float64) float64 {
	if k == Gaussian {
		return Exp1(-gamma * dist2)
	}
	return k.Profile(gamma * math.Sqrt(dist2))
}

// X maps a squared distance to the kernel's transformed variable.
func (k Kernel) X(gamma, dist2 float64) float64 {
	if k == Gaussian {
		return gamma * dist2
	}
	return gamma * math.Sqrt(dist2)
}

// ProfileMax returns the profile's maximum value (attained at x = 0).
func (k Kernel) ProfileMax() float64 {
	return k.Profile(0)
}

// HasQuadraticBounds reports whether the QUAD quadratic envelopes are
// available for this kernel. Uniform has a flat, discontinuous profile for
// which only min-max bounds apply; Epanechnikov and Quartic get partially
// exact envelopes (see bounds package).
func (k Kernel) HasQuadraticBounds() bool {
	return k != Uniform
}

// HasLinearBounds reports whether the KARL-style O(d) linear envelopes are
// available. Per paper Section 5.1 they exist only for the Gaussian kernel,
// whose transformed variable is the squared distance.
func (k Kernel) HasLinearBounds() bool { return k == Gaussian }
