package engine

import "github.com/quadkdv/quad/internal/kdtree"

// Refiner exposes the Table 3 refinement loop one step at a time, so callers
// can interleave the refinement of several aggregates and stop on conditions
// the engine doesn't know about — the mechanism behind kernel density
// classification (racing per-class density bounds) and any anytime use of
// the bounds.
//
// A Refiner borrows its FlatEngine exclusively until the caller is done with
// it; the engine's own Eval* methods must not be used concurrently. Use
// FlatEngine.Clone to refine several queries at once.
type Refiner struct {
	e *FlatEngine
	q []float64

	exactAcc float64
	st       Stats
	h        queue
	p        pending
}

// negligibleDrift is the share of the reported lower bound that the pending
// sums' drift since their last recompute may reach before Bounds recomputes
// them.
const negligibleDrift = 0x1p-30

// StartRefine begins refining F_P(q)'s bounds. The returned Refiner starts
// with the root bounds already evaluated.
func (e *FlatEngine) StartRefine(q []float64) *Refiner {
	r := &Refiner{e: e, q: q}
	lb, ub := e.Ev.FlatBounds(e.Tree, 0, q)
	r.st.NodesEvaluated++
	r.p = r.h.start(fitem{id: 0, seed: -1, lb: lb, ub: ub})
	return r
}

// Bounds returns the current certified interval [lb, ub] around F_P(q). It
// recomputes the pending sums whenever their drift is not negligible against
// the lower bound it reports, so a density far below the root bounds is not
// reported through the root's rounding error.
func (r *Refiner) Bounds() (lb, ub float64) {
	if len(r.h.items) == 0 {
		return r.exactAcc, r.exactAcc
	}
	if p := r.p; p.lb < 0 || p.ub < 0 || p.drift > negligibleDrift*(r.exactAcc+p.lb) {
		r.p = r.h.sums()
	}
	lb, ub = r.exactAcc+r.p.lb, r.exactAcc+r.p.ub
	if lb < 0 {
		lb = 0
	}
	if lb > ub {
		mid := (lb + ub) / 2
		lb, ub = mid, mid
	}
	return lb, ub
}

// Gap returns ub − lb, the current uncertainty.
func (r *Refiner) Gap() float64 {
	lb, ub := r.Bounds()
	return ub - lb
}

// Exhausted reports whether the bounds are exact (nothing left to refine).
func (r *Refiner) Exhausted() bool { return len(r.h.items) == 0 }

// Stats returns the work counters accumulated so far.
func (r *Refiner) Stats() Stats { return r.st }

// Step performs one refinement iteration (pop + split or leaf scan) and
// reports whether further refinement is possible.
func (r *Refiner) Step() bool {
	h := &r.h
	if len(h.items) == 0 {
		return false
	}
	r.st.Iterations++
	it := h.pop()
	t := r.e.Tree
	if left := t.Left[it.id]; left == kdtree.NoChild {
		r.exactAcc += r.e.Ev.FlatExactNode(t, it.id, r.q)
		r.st.LeafScans++
		r.st.PointsScanned += t.Size(it.id)
		r.p = r.p.drop(it)
	} else {
		right := t.Right[it.id]
		llb, lub := r.e.Ev.FlatBounds(t, left, r.q)
		rlb, rub := r.e.Ev.FlatBounds(t, right, r.q)
		r.st.NodesEvaluated += 2
		l, rt := fitem{id: left, seed: -1, lb: llb, ub: lub}, fitem{id: right, seed: -1, lb: rlb, ub: rub}
		h.push(l)
		h.push(rt)
		r.p = r.p.split(it, l, rt)
	}
	return len(h.items) > 0
}

// RefineUntil steps until cond(lb, ub) holds or the bounds are exact, and
// returns the final bounds. cond is decided only on recomputed pending
// sums, recomputed under the same widened trigger as FlatEngine.refine
// (pending.trigger), so cond must be monotone: if it holds at (lb, ub), it
// holds for every larger lb and smaller ub.
func (r *Refiner) RefineUntil(cond func(lb, ub float64) bool) (lb, ub float64) {
	for {
		if r.p.trigger(len(r.h.items), r.exactAcc, r.exactAcc, cond) {
			if r.p = r.h.sums(); cond(r.exactAcc+r.p.lb, r.exactAcc+r.p.ub) {
				return r.Bounds()
			}
		}
		if !r.Step() {
			return r.Bounds()
		}
	}
}
