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

	exactAcc       float64
	lbPend, ubPend float64
	st             Stats
	heap           []fitem
}

// StartRefine begins refining F_P(q)'s bounds. The returned Refiner starts
// with the root bounds already evaluated.
func (e *FlatEngine) StartRefine(q []float64) *Refiner {
	r := &Refiner{e: e, q: q}
	lb, ub := e.Ev.FlatBounds(e.Tree, 0, q)
	r.st.NodesEvaluated++
	r.push(fitem{id: 0, seed: -1, lb: lb, ub: ub})
	r.lbPend, r.ubPend = lb, ub
	return r
}

// Bounds returns the current certified interval [lb, ub] around F_P(q).
func (r *Refiner) Bounds() (lb, ub float64) {
	if len(r.heap) == 0 {
		return r.exactAcc, r.exactAcc
	}
	if r.lbPend < 0 || r.ubPend < 0 {
		r.recompute()
	}
	lb, ub = r.exactAcc+r.lbPend, r.exactAcc+r.ubPend
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
func (r *Refiner) Exhausted() bool { return len(r.heap) == 0 }

// Stats returns the work counters accumulated so far.
func (r *Refiner) Stats() Stats { return r.st }

// Step performs one refinement iteration (pop + split or leaf scan) and
// reports whether further refinement is possible.
func (r *Refiner) Step() bool {
	if len(r.heap) == 0 {
		return false
	}
	r.st.Iterations++
	it := r.pop()
	t := r.e.Tree
	if left := t.Left[it.id]; left == kdtree.NoChild {
		r.exactAcc += r.e.Ev.FlatExactNode(t, it.id, r.q)
		r.st.LeafScans++
		r.st.PointsScanned += t.Size(it.id)
		r.lbPend -= it.lb
		r.ubPend -= it.ub
	} else {
		right := t.Right[it.id]
		llb, lub := r.e.Ev.FlatBounds(t, left, r.q)
		rlb, rub := r.e.Ev.FlatBounds(t, right, r.q)
		r.st.NodesEvaluated += 2
		r.lbPend += llb + rlb - it.lb
		r.ubPend += lub + rub - it.ub
		r.push(fitem{id: left, seed: -1, lb: llb, ub: lub})
		r.push(fitem{id: right, seed: -1, lb: rlb, ub: rub})
	}
	return len(r.heap) > 0
}

// RefineUntil steps until cond(lb, ub) holds or the bounds are exact, and
// returns the final bounds. The condition is re-verified on drift-free
// recomputed pending sums before it is trusted (see FlatEngine.refine).
func (r *Refiner) RefineUntil(cond func(lb, ub float64) bool) (lb, ub float64) {
	for {
		if r.lbPend < 0 || r.ubPend < 0 || cond(r.rawBounds()) {
			r.recompute()
			if cond(r.rawBounds()) {
				return r.Bounds()
			}
		}
		if !r.Step() {
			return r.Bounds()
		}
	}
}

func (r *Refiner) rawBounds() (float64, float64) {
	return r.exactAcc + r.lbPend, r.exactAcc + r.ubPend
}

func (r *Refiner) recompute() {
	r.lbPend, r.ubPend = 0, 0
	for _, it := range r.heap {
		r.lbPend += it.lb
		r.ubPend += it.ub
	}
}

// --- Refiner-local heap (same max-gap ordering as the engine's). ---

func (r *Refiner) push(it fitem) {
	r.heap = append(r.heap, it)
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if fgap(r.heap[parent]) >= fgap(r.heap[i]) {
			break
		}
		r.heap[parent], r.heap[i] = r.heap[i], r.heap[parent]
		i = parent
	}
}

func (r *Refiner) pop() fitem {
	h := r.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	r.heap = h[:last]
	h = r.heap
	i := 0
	for {
		l, rc := 2*i+1, 2*i+2
		big := i
		if l < len(h) && fgap(h[l]) > fgap(h[big]) {
			big = l
		}
		if rc < len(h) && fgap(h[rc]) > fgap(h[big]) {
			big = rc
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return top
}
