package kdtree

import (
	"math"

	"github.com/quadkdv/quad/internal/geom"
)

// NoChild marks an absent child index (leaves).
const NoChild = int32(-1)

// Tree is the kd-tree index in struct-of-arrays form. All slices are
// indexed by node id (BFS order, root = 0); vector fields are strided by the
// tree's dimension d, Gram by d².
type Tree struct {
	// Pts and Weights alias the caller's buffers, reordered by the build;
	// leaves are contiguous coordinate ranges. Weights is nil for an
	// unweighted build.
	Pts     geom.Points
	Weights []float64

	// Left and Right are child node ids, NoChild for leaves. A node has
	// either two children or none.
	Left, Right []int32
	// Start and End delimit the node's point range [Start, End) in Pts.
	Start, End []int32

	// RectMin and RectMax are the node MBR corners (d-strided).
	RectMin, RectMax []float64
	// Center is the MBR center the moments are taken around (d-strided).
	Center []float64
	// SumP is Σw·(p−Center) (d-strided); SumNorm2P is Σw·‖p−Center‖²·(p−Center).
	SumP, SumNorm2P []float64
	// SumW, SumNorm2, SumNorm4 and Radius are the per-node scalar stats.
	// SumW is the node's total weight, its point count when unweighted;
	// every point of the node lies within Radius of Center.
	SumW, SumNorm2, SumNorm4, Radius []float64
	// Gram is Σw·(p−Center)·(p−Center)ᵀ row-major (d²-strided), nil when the
	// tree was built without the Gram statistic.
	Gram []float64

	// LeafSize is the leaf capacity the tree was built with.
	LeafSize int

	dim      int
	numNodes int
	height   int
}

// NumNodes returns the node count.
func (t *Tree) NumNodes() int { return t.numNodes }

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.dim }

// HasGram reports whether nodes carry the Gram statistic.
func (t *Tree) HasGram() bool { return t.Gram != nil }

// IsLeaf reports whether node id has no children.
func (t *Tree) IsLeaf(id int32) bool { return t.Left[id] == NoChild }

// Size returns the number of points under node id.
func (t *Tree) Size(id int32) int { return int(t.End[id] - t.Start[id]) }

// WeightAt returns point i's weight (1 for unweighted trees).
func (t *Tree) WeightAt(i int) float64 {
	if t.Weights == nil {
		return 1
	}
	return t.Weights[i]
}

// Rect returns a view of node id's MBR backed by the tree's arrays. Only
// the build writes through it; every other caller must not mutate it.
func (t *Tree) Rect(id int32) geom.Rect {
	o := int(id) * t.dim
	return geom.Rect{Min: t.RectMin[o : o+t.dim : o+t.dim], Max: t.RectMax[o : o+t.dim : o+t.dim]}
}

// CenterAt returns a view of node id's moment center.
func (t *Tree) CenterAt(id int32) []float64 {
	o := int(id) * t.dim
	return t.Center[o : o+t.dim : o+t.dim]
}

// MinDist2 returns the squared distance from q to node id's MBR — the SoA
// counterpart of geom.Rect.MinDist2, same per-dimension operations.
func (t *Tree) MinDist2(id int32, q []float64) float64 {
	o := int(id) * t.dim
	if len(q) == 2 {
		mn, mx := t.RectMin[o:o+2:o+2], t.RectMax[o:o+2:o+2]
		var s float64
		v := q[0]
		switch {
		case v < mn[0]:
			d := mn[0] - v
			s += d * d
		case v > mx[0]:
			d := v - mx[0]
			s += d * d
		}
		v = q[1]
		switch {
		case v < mn[1]:
			d := mn[1] - v
			s += d * d
		case v > mx[1]:
			d := v - mx[1]
			s += d * d
		}
		return s
	}
	return t.Rect(id).MinDist2(q)
}

// MaxDist2 returns the squared distance from q to the farthest point of node
// id's MBR — the SoA counterpart of geom.Rect.MaxDist2.
func (t *Tree) MaxDist2(id int32, q []float64) float64 {
	o := int(id) * t.dim
	if len(q) == 2 {
		mn, mx := t.RectMin[o:o+2:o+2], t.RectMax[o:o+2:o+2]
		var s float64
		for i := 0; i < 2; i++ {
			v := q[i]
			dLo := v - mn[i]
			dHi := mx[i] - v
			if dLo < 0 {
				dLo = -dLo
			}
			if dHi < 0 {
				dHi = -dHi
			}
			d := dLo
			if dHi > d {
				d = dHi
			}
			s += d * d
		}
		return s
	}
	return t.Rect(id).MaxDist2(q)
}

// Dist2Center returns the squared distance from q to node id's moment
// center, mirroring geom.Dist2(q, n.Center).
func (t *Tree) Dist2Center(id int32, q []float64) float64 {
	o := int(id) * t.dim
	c := t.Center[o : o+t.dim : o+t.dim]
	var s float64
	for i, v := range q {
		d := v - c[i]
		s += d * d
	}
	return s
}

// SumDist2 returns Σw·dist(q,p)² over node id's points in O(d) time using
// the centered moments (paper Section 3.3):
//
//	Σ‖q'−p'‖² = |P|·‖q'‖² − 2·q'·a_P + b_P,   q' = q − Center.
//
// scratch must have length ≥ d and is used for q' when d ≠ 2.
func (t *Tree) SumDist2(id int32, q, scratch []float64) float64 {
	o := int(id) * t.dim
	if len(q) == 2 {
		c := t.Center[o : o+2 : o+2]
		sp := t.SumP[o : o+2 : o+2]
		qc0 := q[0] - c[0]
		qc1 := q[1] - c[1]
		var qn2 float64
		qn2 += qc0 * qc0
		qn2 += qc1 * qc1
		var dot float64
		dot += qc0 * sp[0]
		dot += qc1 * sp[1]
		return t.SumW[id]*qn2 - 2*dot + t.SumNorm2[id]
	}
	d := t.dim
	c := t.Center[o : o+d : o+d]
	qc := scratch[:len(q)]
	var qn2 float64
	for i := range q {
		qc[i] = q[i] - c[i]
		qn2 += qc[i] * qc[i]
	}
	return t.SumW[id]*qn2 - 2*geom.Dot(qc, t.SumP[o:o+d:o+d]) + t.SumNorm2[id]
}

// SumDist24 returns both Σw·dist² and Σw·dist⁴ over node id's points in one
// pass, sharing the centered-query terms the two formulas have in common.
// Σdist⁴ takes O(d²) time (paper Lemma 3 / Section 9.2):
//
//	Σ‖q'−p'‖⁴ = |P|·‖q'‖⁴ − 4‖q'‖²·q'·a_P − 4·q'·v_P + 2‖q'‖²·b_P + h_P
//	            + 4·q'ᵀ·C·q'.
//
// It requires the Gram statistic; calling it on a tree built without Gram
// panics, since that is a programming error. scratch must have length ≥ d.
func (t *Tree) SumDist24(id int32, q, scratch []float64) (s2, s4 float64) {
	if t.Gram == nil {
		panic("flat: SumDist24 requires a tree built with Options.Gram")
	}
	o := int(id) * t.dim
	if len(q) == 2 {
		c := t.Center[o : o+2 : o+2]
		sp := t.SumP[o : o+2 : o+2]
		s2p := t.SumNorm2P[o : o+2 : o+2]
		g := t.Gram[int(id)*4 : int(id)*4+4 : int(id)*4+4]
		qc0 := q[0] - c[0]
		qc1 := q[1] - c[1]
		var qn2 float64
		qn2 += qc0 * qc0
		qn2 += qc1 * qc1
		var dotA float64
		dotA += qc0 * sp[0]
		dotA += qc1 * sp[1]
		sumW := t.SumW[id]
		sumN2 := t.SumNorm2[id]
		s2 = sumW*qn2 - 2*dotA + sumN2
		var quad float64
		var s float64
		s += g[0] * qc0
		s += g[1] * qc1
		quad += qc0 * s
		s = 0
		s += g[2] * qc0
		s += g[3] * qc1
		quad += qc1 * s
		var dotV float64
		dotV += qc0 * s2p[0]
		dotV += qc1 * s2p[1]
		s4 = sumW*qn2*qn2 - 4*qn2*dotA - 4*dotV +
			2*qn2*sumN2 + t.SumNorm4[id] + 4*quad
		return s2, s4
	}
	d := t.dim
	c := t.Center[o : o+d : o+d]
	qc := scratch[:d]
	var qn2 float64
	for i := 0; i < d; i++ {
		qc[i] = q[i] - c[i]
		qn2 += qc[i] * qc[i]
	}
	dotA := geom.Dot(qc, t.SumP[o:o+d:o+d])
	s2 = t.SumW[id]*qn2 - 2*dotA + t.SumNorm2[id]
	var quad float64
	gram := t.Gram[int(id)*d*d:]
	for r := 0; r < d; r++ {
		row := gram[r*d : (r+1)*d]
		var s float64
		for cc := 0; cc < d; cc++ {
			s += row[cc] * qc[cc]
		}
		quad += qc[r] * s
	}
	s4 = t.SumW[id]*qn2*qn2 - 4*qn2*dotA - 4*geom.Dot(qc, t.SumNorm2P[o:o+d:o+d]) +
		2*qn2*t.SumNorm2[id] + t.SumNorm4[id] + 4*quad
	return s2, s4
}

// RectSumDist2 returns the exact range of SumDist2(id, q) over every query
// point q in the rectangle. Completing the square in the Section 3.3
// identity,
//
//	Σ w·‖q−p‖² = W·‖q' − a_P/W‖² + b_P − ‖a_P‖²/W,   q' = q − Center,
//
// which is a separable convex quadratic in q: each dimension independently
// attains its minimum at a_P[d]/W clamped into the rectangle's interval and
// its maximum at the endpoint farther from it. This is what lets envelope
// bounds (which aggregate through Σdist²) be evaluated tile-uniformly in
// O(d) instead of falling back to the loose min-max distance interval.
func (t *Tree) RectSumDist2(id int32, rect geom.Rect) (lo, hi float64) {
	w := t.SumW[id]
	if w <= 0 {
		return 0, 0
	}
	o := int(id) * t.dim
	var m2, sumMin, sumMax float64
	if t.dim == 2 {
		c := t.Center[o : o+2 : o+2]
		sp := t.SumP[o : o+2 : o+2]
		for d := 0; d < 2; d++ {
			m := sp[d] / w
			m2 += sp[d] * m
			qlo := rect.Min[d] - c[d] - m
			qhi := rect.Max[d] - c[d] - m
			switch {
			case qlo > 0:
				sumMin += qlo * qlo
			case qhi < 0:
				sumMin += qhi * qhi
			}
			if lo2, hi2 := qlo*qlo, qhi*qhi; lo2 > hi2 {
				sumMax += lo2
			} else {
				sumMax += hi2
			}
		}
	} else {
		c := t.Center[o : o+t.dim : o+t.dim]
		sp := t.SumP[o : o+t.dim : o+t.dim]
		for d := range c {
			m := sp[d] / w
			m2 += sp[d] * m
			qlo := rect.Min[d] - c[d] - m
			qhi := rect.Max[d] - c[d] - m
			switch {
			case qlo > 0:
				sumMin += qlo * qlo
			case qhi < 0:
				sumMin += qhi * qhi
			}
			if lo2, hi2 := qlo*qlo, qhi*qhi; lo2 > hi2 {
				sumMax += lo2
			} else {
				sumMax += hi2
			}
		}
	}
	base := t.SumNorm2[id] - m2
	lo = w*sumMin + base
	hi = w*sumMax + base
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// RectDist2 returns the squared distance interval [min2, max2] between node
// id's points and ANY query point inside the query rectangle: for every
// q ∈ rect and p ∈ node, min2 ≤ dist(q, p)² ≤ max2. The interval combines
// the node's MBR with (optionally) its bounding ball around Center — the
// rectangle-query analogue of the per-point MBR+ball machinery used by the
// bound evaluators, and the primitive behind tile-shared traversal.
func (t *Tree) RectDist2(id int32, rect geom.Rect, useBall bool) (min2, max2 float64) {
	o := int(id) * t.dim
	d := t.dim
	mn, mx := t.RectMin[o:o+d:o+d], t.RectMax[o:o+d:o+d]
	// MinDist2Rect/MaxDist2Rect with the node rect as the receiver, unrolled
	// over dimensions by the compiler-friendly bounded loop.
	var s float64
	for i := 0; i < d; i++ {
		switch {
		case rect.Max[i] < mn[i]:
			dd := mn[i] - rect.Max[i]
			s += dd * dd
		case rect.Min[i] > mx[i]:
			dd := rect.Min[i] - mx[i]
			s += dd * dd
		}
	}
	min2 = s
	s = 0
	for i := 0; i < d; i++ {
		dd := mx[i] - rect.Min[i]
		if alt := rect.Max[i] - mn[i]; alt > dd {
			dd = alt
		}
		if dd < 0 {
			dd = -dd
		}
		s += dd * dd
	}
	max2 = s
	if useBall {
		c := t.Center[o : o+d : o+d]
		dcMin := math.Sqrt(rect.MinDist2(c))
		dcMax := math.Sqrt(rect.MaxDist2(c))
		r := t.Radius[id]
		if bmin := dcMin - r; bmin > 0 {
			if b2 := bmin * bmin; b2 > min2 {
				min2 = b2
			}
		}
		bmax := dcMax + r
		if b2 := bmax * bmax; b2 < max2 {
			max2 = b2
		}
	}
	return min2, max2
}

// Walk visits every node id in pre-order; returning false prunes the
// subtree.
func (t *Tree) Walk(fn func(id int32) bool) {
	var rec func(id int32)
	rec = func(id int32) {
		if id == NoChild || !fn(id) {
			return
		}
		rec(t.Left[id])
		rec(t.Right[id])
	}
	if t.numNodes > 0 {
		rec(0)
	}
}

// Height returns the tree's height (a single node has height 1).
func (t *Tree) Height() int { return t.height }
