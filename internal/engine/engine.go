// Package engine implements the per-pixel refinement algorithm of the KDV
// indexing framework (paper Section 3.2, Table 3): a max-priority queue over
// kd-tree nodes ordered by bound gap UB_R(q) − LB_R(q), with incremental
// maintenance of the aggregate bounds lb and ub. Popping an internal node
// replaces its bounds with its children's; popping a leaf replaces them with
// the exact leaf contribution. The loop stops as soon as the variant's
// termination condition holds:
//
//	εKDV:  ub ≤ (1+ε)·lb          → return (lb+ub)/2
//	τKDV:  lb ≥ τ  or  ub ≤ τ     → return lb ≥ τ
//
// The engine is shared by every bound method (MinMax/aKDE, MinMax/tKDC,
// Linear/KARL, Quadratic/QUAD), mirroring the paper's "same framework,
// different bound functions" methodology. It walks the struct-of-arrays
// kd-tree of internal/kdtree.
package engine

import "github.com/quadkdv/quad/internal/kdtree"

// Stats aggregates per-query work counters.
type Stats struct {
	// Iterations is the number of queue pops.
	Iterations int
	// NodesEvaluated is the number of bound-function evaluations.
	NodesEvaluated int
	// LeafScans is the number of leaves refined exactly.
	LeafScans int
	// PointsScanned is the number of points touched by leaf scans.
	PointsScanned int
	// LB and UB are the final aggregate bounds the query settled at — the
	// residual bound gap UB−LB is the per-pixel tightness signal behind
	// work-map diagnostics. They describe one query, so Add does not
	// accumulate them.
	LB, UB float64
}

// Gap returns the residual bound gap UB−LB at settle, clamped at zero
// (fully refined queries end with UB == LB up to rounding).
func (s Stats) Gap() float64 {
	if g := s.UB - s.LB; g > 0 {
		return g
	}
	return 0
}

// Add accumulates other's work counters into s. The per-query settle
// bounds (LB, UB) are not summed — an aggregate of final bounds has no
// meaning — so s keeps its own.
func (s *Stats) Add(other Stats) {
	s.Iterations += other.Iterations
	s.NodesEvaluated += other.NodesEvaluated
	s.LeafScans += other.LeafScans
	s.PointsScanned += other.PointsScanned
}

// TracePoint records the aggregate bounds after one refinement iteration —
// the instrumentation behind the paper's Figure 18.
type TracePoint struct {
	Iteration int
	LB, UB    float64
}

// BoundTrace runs an εKDV query recording (lb, ub) after every iteration,
// including iteration 0 (root bounds). It stops at the εKDV termination
// condition and returns the trace. The recorded pending sums are the
// incremental ones, replaced by recomputed sums only when the stop trigger
// (pending.trigger) or a negative sum recomputes them.
func (e *FlatEngine) BoundTrace(q []float64, eps float64) []TracePoint {
	t, h := e.Tree, &e.q
	blb, bub := e.Ev.FlatBounds(t, 0, q)
	p := h.start(fitem{id: 0, seed: -1, lb: blb, ub: bub})
	trace := []TracePoint{{Iteration: 0, LB: blb, UB: bub}}
	done := func(lb, ub float64) bool { return ub <= (1+eps)*lb }

	var exactAcc float64
	for iter := 1; len(h.items) > 0; iter++ {
		if p.trigger(len(h.items), exactAcc, exactAcc, done) {
			if p = h.sums(); done(exactAcc+p.lb, exactAcc+p.ub) {
				break
			}
		}
		it := h.pop()
		id := it.id
		if left := t.Left[id]; left == kdtree.NoChild {
			exactAcc += e.Ev.FlatExactNode(t, id, q)
			p = p.drop(it)
		} else {
			right := t.Right[id]
			llb, lub := e.Ev.FlatBounds(t, left, q)
			rlb, rub := e.Ev.FlatBounds(t, right, q)
			l, r := fitem{id: left, seed: -1, lb: llb, ub: lub}, fitem{id: right, seed: -1, lb: rlb, ub: rub}
			h.push(l)
			h.push(r)
			p = p.split(it, l, r)
		}
		if p.lb < 0 || p.ub < 0 {
			p = h.sums()
		}
		trace = append(trace, TracePoint{Iteration: iter, LB: exactAcc + p.lb, UB: exactAcc + p.ub})
	}
	return trace
}
