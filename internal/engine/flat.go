package engine

import (
	"fmt"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/kdtree"
)

// This file is the per-pixel refinement engine: the Table 3 loop over the
// flat (SoA) kd-tree, walking int32 node ids through contiguous arrays.
// Queue entries are 24 bytes and every statistic fetch is a strided array
// load, which keeps the refinement loop arithmetic-bound rather than
// cache-miss-bound. Its output bits are pinned by the ledger
// (testdata/ledger.golden at the module root).

// fitem is one queue entry: a node id with its current bound contribution.
// seed is the node's index in the tile frontier that seeded the queue (−1
// for items produced by ordinary expansion); refineFrom uses it to record
// which frontier nodes a pixel had to expand, the signal behind frontier
// promotion.
type fitem struct {
	id   int32
	seed int32
	lb   float64
	ub   float64
}

func fgap(it fitem) float64 { return it.ub - it.lb }

// FlatEngine evaluates εKDV / τKDV queries against one flat tree with one
// bound evaluator. It reuses its internal queue across queries and therefore
// must not be shared between goroutines; use Clone for parallel workers.
type FlatEngine struct {
	Tree *kdtree.Tree
	Ev   *bounds.Evaluator

	heap []fitem
}

// NewFlat validates that the flat tree carries the statistics the evaluator
// needs and returns an engine.
func NewFlat(tree *kdtree.Tree, ev *bounds.Evaluator) (*FlatEngine, error) {
	if tree == nil || tree.NumNodes() == 0 {
		return nil, fmt.Errorf("engine: nil or empty flat tree")
	}
	if ev.NeedsGram() && !tree.HasGram() {
		return nil, fmt.Errorf("engine: %s/%s bounds need the Gram statistic; build the tree with Options.Gram", ev.Kern, ev.Method)
	}
	if len(tree.Pts.Coords) > 0 && tree.Dim() <= 0 {
		return nil, fmt.Errorf("engine: flat tree has invalid dimension %d", tree.Dim())
	}
	return &FlatEngine{Tree: tree, Ev: ev}, nil
}

// Clone returns an engine sharing the tree but with private evaluator
// scratch and queue, safe for a separate goroutine.
func (e *FlatEngine) Clone() *FlatEngine {
	return &FlatEngine{Tree: e.Tree, Ev: e.Ev.Clone()}
}

// --- internal max-heap on gap = ub − lb (hand-rolled: container/heap's
// interface indirection costs ~2x on this hot path). ---

func (e *FlatEngine) heapReset() { e.heap = e.heap[:0] }

func (e *FlatEngine) heapPush(it fitem) {
	e.heap = append(e.heap, it)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if fgap(e.heap[parent]) >= fgap(e.heap[i]) {
			break
		}
		e.heap[parent], e.heap[i] = e.heap[i], e.heap[parent]
		i = parent
	}
}

func (e *FlatEngine) heapPop() fitem {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	h = e.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && fgap(h[l]) > fgap(h[big]) {
			big = l
		}
		if r < len(h) && fgap(h[r]) > fgap(h[big]) {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return top
}

// heapify restores the max-gap heap property over the whole slice in O(n) —
// used when a pixel's queue is bulk-seeded from a tile frontier.
func (e *FlatEngine) heapify() {
	h := e.heap
	for i := len(h)/2 - 1; i >= 0; i-- {
		for j := i; ; {
			l, r := 2*j+1, 2*j+2
			big := j
			if l < len(h) && fgap(h[l]) > fgap(h[big]) {
				big = l
			}
			if r < len(h) && fgap(h[r]) > fgap(h[big]) {
				big = r
			}
			if big == j {
				break
			}
			h[j], h[big] = h[big], h[j]
			j = big
		}
	}
}

// EvalEps answers an εKDV query: a value within relative error ε of F_P(q).
// With the stop rule ub ≤ (1+ε)·lb and result (lb+ub)/2, the error satisfies
// |R−F|/F ≤ (ub−lb)/(2·lb) ≤ ε/2.
func (e *FlatEngine) EvalEps(q []float64, eps float64) (float64, Stats) {
	lb, ub, st := e.refine(q, func(lb, ub float64) bool {
		return ub <= (1+eps)*lb
	})
	st.LB, st.UB = lb, ub
	return (lb + ub) / 2, st
}

// EvalTau answers a τKDV query: whether F_P(q) ≥ τ. Pixels whose density is
// exactly τ are classified as hot (lb ≥ τ fires first).
func (e *FlatEngine) EvalTau(q []float64, tau float64) (bool, Stats) {
	lb, ub, st := e.refine(q, func(lb, ub float64) bool {
		return lb >= tau || ub <= tau
	})
	st.LB, st.UB = lb, ub
	return lb >= tau, st
}

// Exact computes F_P(q) exactly through the tree (equivalent to a full scan
// but reusing the leaf layout).
func (e *FlatEngine) Exact(q []float64) float64 {
	return e.Ev.FlatExactNode(e.Tree, 0, q)
}

// RootBounds returns the evaluator's whole-dataset bounds at q without
// refinement (paper Section 7.3 diagnostics).
func (e *FlatEngine) RootBounds(q []float64) (lb, ub float64) {
	return e.Ev.FlatBounds(e.Tree, 0, q)
}

// refine runs the Table 3 loop until done(lb, ub) holds or the bounds are
// exact (queue empty). It returns the final aggregate bounds.
//
// The aggregates are maintained as exactAcc (sum of refined leaf
// contributions, exact) plus lbPend/ubPend (incremental sums of the bound
// contributions of nodes still in the queue). The incremental updates
// accumulate absolute rounding drift on the order of an ulp of the ROOT
// bounds, which can dwarf tiny tail densities and corrupt the relative
// termination test — so whenever the test is about to fire, or a pending
// sum dips negative (impossible for true sums of non-negative bounds), the
// pending sums are recomputed exactly from the live queue before the
// decision is trusted.
func (e *FlatEngine) refine(q []float64, done func(lb, ub float64) bool) (flb, fub float64, st Stats) {
	e.heapReset()
	t := e.Tree
	rlb, rub := e.Ev.FlatBounds(t, 0, q)
	st.NodesEvaluated++
	e.heapPush(fitem{id: 0, seed: -1, lb: rlb, ub: rub})

	var exactAcc float64
	lbPend, ubPend := rlb, rub

	for len(e.heap) > 0 {
		if lbPend < 0 || ubPend < 0 || done(exactAcc+lbPend, exactAcc+ubPend) {
			lbPend, ubPend = e.recomputePending()
			if done(exactAcc+lbPend, exactAcc+ubPend) {
				break
			}
		}
		st.Iterations++
		it := e.heapPop()
		id := it.id
		left := t.Left[id]
		if left == kdtree.NoChild {
			exactAcc += e.Ev.FlatExactNode(t, id, q)
			st.LeafScans++
			st.PointsScanned += t.Size(id)
			lbPend -= it.lb
			ubPend -= it.ub
			continue
		}
		right := t.Right[id]
		llb, lub := e.Ev.FlatBounds(t, left, q)
		rlb, rub := e.Ev.FlatBounds(t, right, q)
		st.NodesEvaluated += 2
		lbPend += llb + rlb - it.lb
		ubPend += lub + rub - it.ub
		e.heapPush(fitem{id: left, seed: -1, lb: llb, ub: lub})
		e.heapPush(fitem{id: right, seed: -1, lb: rlb, ub: rub})
	}
	if len(e.heap) == 0 {
		// Fully refined: the pending sums are pure rounding residue.
		return exactAcc, exactAcc, st
	}
	lb, ub := exactAcc+lbPend, exactAcc+ubPend
	if lb > ub {
		// Within an ulp of each other after the fresh recompute.
		mid := (lb + ub) / 2
		lb, ub = mid, mid
	}
	return lb, ub, st
}

// recomputePending re-derives the pending bound sums directly from the
// queue's items, discarding accumulated incremental drift. The true sums of
// clamped node bounds are non-negative by construction.
func (e *FlatEngine) recomputePending() (lbPend, ubPend float64) {
	for _, it := range e.heap {
		lbPend += it.lb
		ubPend += it.ub
	}
	return lbPend, ubPend
}
