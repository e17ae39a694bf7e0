// Package oracle is the slow, trusted ground truth of the conformance
// layer: an exact kernel density evaluator whose every aggregate is computed
// with Kahan–Neumaier compensated summation. Where the production paths
// (bounds.ExactScan, the refinement engines, the tile-shared traversal)
// optimize for speed and accept ordinary floating-point accumulation, the
// oracle optimizes for having an error model so small — one rounding unit of
// the final sum, independent of n — that every other path can be judged
// against it: the differential suite asserts the εKDV guarantee
// |R − F_P(q)| ≤ ε·F_P(q) pixel-by-pixel against oracle rasters, the τKDV
// suite compares hot masks against oracle classification, and the
// bound-dominance checks sandwich per-node partial sums between each
// method's LB/UB.
//
// Both arbiters that judge renders against it — the conformance suite
// offline and the shadow auditor on served renders — apply the one
// tolerance rule below: ExactTol, FPMargin and RoundingSlack.
//
// Nothing here is on a hot path by design; keep it simple and obviously
// correct.
package oracle

import (
	"fmt"
	"math"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// The tolerances of a render checked against the oracle.
const (
	// ExactTol stands in for ε on exact renders: a naive scan over n points
	// is exact up to O(n·ulp) relative rounding, orders of magnitude under
	// it, while ε = 0 would demand a bit equality no accumulation order can
	// promise.
	ExactTol = 1e-9
	// FPMargin excuses a τ misclassification only when the exact density is
	// within this relative distance of τ — the regime where the production
	// path's ordinary floating-point aggregates can legitimately land on
	// the other side of the threshold than the compensated oracle.
	FPMargin = 1e-9
)

// RoundingSlack is the rounding allowance at a pixel whose reference value
// is ref: a few ulps of it, floored at the smallest normal float. It is
// relative, so a tail pixel many orders of magnitude below the raster's
// maximum is held to ε like any other, and an exact zero (outside a compact
// kernel's support) admits only values below the normal range.
func RoundingSlack(ref float64) float64 {
	return math.Max(4*0x1p-52*math.Abs(ref), 0x1p-1022)
}

// Sum is a Kahan–Neumaier compensated accumulator: the running error of each
// addition is captured in a compensation term and folded back in at the end,
// so the final value is exact to within one rounding of the true sum even
// when terms vary over many orders of magnitude (exactly the regime of
// kernel sums: a few near-1 terms from local points plus millions of tiny
// tail contributions).
type Sum struct {
	s, c float64
}

// Add accumulates x.
func (a *Sum) Add(x float64) {
	t := a.s + x
	if abs(a.s) >= abs(x) {
		a.c += (a.s - t) + x
	} else {
		a.c += (x - t) + a.s
	}
	a.s = t
}

// Value returns the compensated total.
func (a *Sum) Value() float64 { return a.s + a.c }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Oracle evaluates exact kernel densities F_P(q) = w·Σ w_i·K(q, p_i) for one
// dataset and kernel configuration. It is safe for concurrent use (all state
// is read-only after construction).
type Oracle struct {
	Pts geom.Points
	// Weights are optional per-point weights parallel to Pts (nil = uniform
	// weight 1).
	Weights []float64
	Kern    kernel.Kernel
	Gamma   float64
	// Weight is the scalar weight w applied to the whole sum.
	Weight float64
}

// New validates the configuration and returns an oracle.
func New(pts geom.Points, weights []float64, kern kernel.Kernel, gamma, weight float64) (*Oracle, error) {
	if pts.Len() == 0 {
		return nil, fmt.Errorf("oracle: empty dataset")
	}
	if !kern.Valid() {
		return nil, fmt.Errorf("oracle: invalid kernel %d", int(kern))
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("oracle: gamma must be positive, got %g", gamma)
	}
	if weight <= 0 {
		return nil, fmt.Errorf("oracle: weight must be positive, got %g", weight)
	}
	if weights != nil && len(weights) != pts.Len() {
		return nil, fmt.Errorf("oracle: %d weights for %d points", len(weights), pts.Len())
	}
	return &Oracle{Pts: pts, Weights: weights, Kern: kern, Gamma: gamma, Weight: weight}, nil
}

// Density returns the exact kernel density F_P(q), Kahan-summed over every
// point.
func (o *Oracle) Density(q []float64) float64 {
	return o.rangeDensity(o.Pts, o.Weights, 0, o.Pts.Len(), q)
}

// NodeDensity returns the exact partial sum F_R(q) of one kd-tree node — the
// quantity every bound method's [LB_R(q), UB_R(q)] interval must bracket.
// The tree's (reordered) points and per-point weights are used, so the value
// is comparable with bounds computed against the same tree.
func (o *Oracle) NodeDensity(t *kdtree.Tree, id int32, q []float64) float64 {
	return o.rangeDensity(t.Pts, t.Weights, int(t.Start[id]), int(t.End[id]), q)
}

func (o *Oracle) rangeDensity(pts geom.Points, weights []float64, start, end int, q []float64) float64 {
	d := pts.Dim
	coords := pts.Coords
	var acc Sum
	for i := start; i < end; i++ {
		row := coords[i*d : i*d+d]
		// The per-point squared distance is also compensated: in degenerate
		// geometries (all-identical coordinates, d=7 far queries) the naive
		// inner loop is exact anyway, but compensation costs nothing here.
		var dist2 Sum
		for k, v := range q {
			dd := v - row[k]
			dist2.Add(dd * dd)
		}
		kv := o.Kern.Eval(o.Gamma, dist2.Value())
		if weights != nil {
			kv *= weights[i]
		}
		acc.Add(kv)
	}
	return o.Weight * acc.Value()
}

// Raster brute-forces the exact density of every pixel center of g —
// the reference raster the differential εKDV checks compare against.
func (o *Oracle) Raster(g *grid.Grid) []float64 {
	vals := make([]float64, g.Res.Pixels())
	q := make([]float64, 2)
	for y := 0; y < g.Res.H; y++ {
		for x := 0; x < g.Res.W; x++ {
			g.Query(x, y, q)
			vals[g.Index(x, y)] = o.Density(q)
		}
	}
	return vals
}

// HotMask classifies a raster of exact densities against τ with the
// library's convention: a pixel is hot iff F_P(q) ≥ τ.
func HotMask(vals []float64, tau float64) []bool {
	hot := make([]bool, len(vals))
	for i, v := range vals {
		hot[i] = v >= tau
	}
	return hot
}

// MuSigma returns the mean and standard deviation of a raster, both
// Kahan-summed — the statistics τ ladders are expressed in.
func MuSigma(vals []float64) (mu, sigma float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	var s Sum
	for _, v := range vals {
		s.Add(v)
	}
	mu = s.Value() / float64(len(vals))
	var sq Sum
	for _, v := range vals {
		d := v - mu
		sq.Add(d * d)
	}
	variance := sq.Value() / float64(len(vals))
	if variance < 0 {
		variance = 0
	}
	return mu, math.Sqrt(variance)
}
