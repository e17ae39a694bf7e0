package engine

import (
	"fmt"
	"math"

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

	q queue
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
// exact (queue empty). It returns the final aggregate bounds: exactAcc, the
// sum of refined leaf contributions, plus the queue's pending sums, which
// are recomputed before any stop is trusted (pending.trigger).
func (e *FlatEngine) refine(q []float64, done func(lb, ub float64) bool) (flb, fub float64, st Stats) {
	t, h := e.Tree, &e.q
	rlb, rub := e.Ev.FlatBounds(t, 0, q)
	st.NodesEvaluated++
	p := h.start(fitem{id: 0, seed: -1, lb: rlb, ub: rub})

	var exactAcc float64
	for len(h.items) > 0 {
		if p.trigger(len(h.items), exactAcc, exactAcc, done) {
			if p = h.sums(); done(exactAcc+p.lb, exactAcc+p.ub) {
				break
			}
		}
		st.Iterations++
		it := h.pop()
		id := it.id
		left := t.Left[id]
		if left == kdtree.NoChild {
			exactAcc += e.Ev.FlatExactNode(t, id, q)
			st.LeafScans++
			st.PointsScanned += t.Size(id)
			p = p.drop(it)
			continue
		}
		right := t.Right[id]
		llb, lub := e.Ev.FlatBounds(t, left, q)
		rlb, rub := e.Ev.FlatBounds(t, right, q)
		st.NodesEvaluated += 2
		l, r := fitem{id: left, seed: -1, lb: llb, ub: lub}, fitem{id: right, seed: -1, lb: rlb, ub: rub}
		h.push(l)
		h.push(r)
		p = p.split(it, l, r)
	}
	flb, fub = h.bounds(p, exactAcc, exactAcc)
	return flb, fub, st
}

// queue is a refinement loop's max-gap priority queue of nodes.
type queue struct{ items []fitem }

// pending is a refinement loop's pending sums: lb and ub are the summed
// bounds of the queued nodes, kept incrementally as nodes are split and
// dropped. Every bound is clamped to 0 ≤ lb ≤ ub, so the exact sums are
// non-negative and lb's never exceeds ub's. The incremental sums drift
// from the exact ones by rounding, on the scale of the largest values they
// ever held — the root bounds — which can dwarf a tail pixel's density.
// drift bounds that error since the sums were last recomputed, and resid
// the error of that recompute itself (or of the sequential sum that seeded
// the queue). Stops are decided only on recomputed sums; see trigger and
// DESIGN.md ("Pending sums"). Its methods return the updated value, so a
// loop keeps it in registers.
type pending struct {
	lb, ub float64
	drift  float64
	resid  float64
}

// driftUnit scales the magnitudes an update touches into a bound on its
// rounding error. An update rounds at most three times, each by at most
// half an ulp (2⁻⁵³) of a value those magnitudes dominate; 2⁻⁵¹ leaves a
// factor of two for the rounding of the bound itself.
const driftUnit = 0x1p-51

// sumErr bounds the rounding error of a sequential sum of m non-negative
// bounds whose exact sum is at most ub: γ_{m−1}·ub ≤ m·2⁻⁵²·ub.
func sumErr(m int, ub float64) float64 { return float64(m) * 0x1p-52 * ub }

// split replaces popped item it by its pushed children l and r.
func (p pending) split(it, l, r fitem) pending {
	p.lb += l.lb + r.lb - it.lb
	p.ub += l.ub + r.ub - it.ub
	p.drift += driftUnit * (l.ub + r.ub + it.ub + math.Abs(p.lb) + math.Abs(p.ub))
	return p
}

// replace swaps popped item it's bounds for those of its pushed re-bound n.
func (p pending) replace(it, n fitem) pending {
	p.lb += n.lb - it.lb
	p.ub += n.ub - it.ub
	p.drift += driftUnit * (n.ub + it.ub + math.Abs(p.lb) + math.Abs(p.ub))
	return p
}

// drop removes popped item it's bounds from the sums.
func (p pending) drop(it fitem) pending {
	p.lb -= it.lb
	p.ub -= it.ub
	p.drift += driftUnit * (math.Abs(p.lb) + math.Abs(p.ub))
	return p
}

// start empties the queue and queues it alone; its sums are exact.
func (q *queue) start(it fitem) pending {
	q.items = append(q.items[:0], it)
	return pending{lb: it.lb, ub: it.ub}
}

// seed refills the queue with items whose bounds sum to lb and ub, summed
// sequentially in items' order.
func (q *queue) seed(items []fitem, lb, ub float64) pending {
	q.items = append(q.items[:0], items...)
	q.heapify()
	return pending{lb: lb, ub: ub, resid: sumErr(len(items), ub)}
}

// sums recomputes the pending sums from the queued items.
func (q *queue) sums() pending {
	var lb, ub float64
	for _, it := range q.items {
		lb += it.lb
		ub += it.ub
	}
	return pending{lb: lb, ub: ub, resid: sumErr(len(q.items), ub)}
}

// trigger reports whether the loop must recompute its pending sums and
// check done on them (each added to its base): a sum has turned negative,
// or done holds on p moved toward a stop by its distance bound to the sums
// a recompute of m queued items would return now — the error since the
// last recompute, that recompute's own, and the error of a recompute now.
// done is monotone (it holds for a larger lb or a smaller ub when it holds
// at all), so no stop the recomputed sums allow is missed; a stop is still
// decided only on the recomputed sums.
func (p pending) trigger(m int, baseLB, baseUB float64, done func(lb, ub float64) bool) bool {
	e := p.resid + p.drift
	e += sumErr(m, p.ub+e)
	return p.lb < 0 || p.ub < 0 || done(baseLB+(p.lb+e), baseUB+(p.ub-e))
}

// bounds returns the aggregate interval: the bases plus the pending sums,
// or the bases alone once the queue is empty (every node refined exactly).
func (q *queue) bounds(p pending, baseLB, baseUB float64) (lb, ub float64) {
	if len(q.items) == 0 {
		return baseLB, baseUB
	}
	lb, ub = baseLB+p.lb, baseUB+p.ub
	if lb > ub {
		// Within an ulp of each other after the fresh recompute.
		mid := (lb + ub) / 2
		lb, ub = mid, mid
	}
	return lb, ub
}

// --- max-heap on gap = ub − lb (hand-rolled: container/heap's interface
// indirection costs ~2x on this hot path). ---

func (q *queue) push(it fitem) {
	q.items = append(q.items, it)
	h := q.items
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if fgap(h[parent]) >= fgap(h[i]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (q *queue) pop() fitem {
	h := q.items
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	q.items = h
	for i := 0; ; {
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

// heapify restores the heap property over the whole slice in O(n) — used
// when a pixel's queue is bulk-seeded from a tile frontier. Like pop, it
// sifts in place rather than through a shared helper: a call per node, or
// per pop, shows in the render time.
func (q *queue) heapify() {
	h := q.items
	for top := len(h)/2 - 1; top >= 0; top-- {
		for i := top; ; {
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
	}
}
