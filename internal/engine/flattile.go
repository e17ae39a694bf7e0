// Tile-shared traversal: the render hot path refines every pixel of a raster
// against the same kd-tree, and neighboring pixels prune nearly identical
// node sets — per-pixel refinement from the root repeats the top of that
// work W×H times. The FlatTileEngine amortizes it: one shared refinement per
// pixel tile classifies nodes against the tile's query rectangle into
//
//   - settled nodes — their tile-uniform [lb, ub] contribution is added once
//     for the whole tile (εKDV: within a budgeted fraction of the ε slack;
//     τKDV: only exactly-known contributions, so hot masks stay identical to
//     per-pixel refinement), and
//   - a residual frontier — a disjoint node cover of the rest.
//
// Per pixel, the refinement queue is then seeded from the frontier's
// tile-uniform bounds (zero bound evaluations — the bounds were computed once
// per tile) instead of the root, and refinement proceeds with the configured
// per-query bounds only where this pixel actually needs them. Frontier
// promotion feeds each pixel's termination state back into the shared
// frontier: nodes that successive pixels keep expanding are replaced
// tile-wide by their children, so later pixels skip that expansion too.
//
// Correctness: FlatRectBounds guarantees lb ≤ F_R(q) ≤ ub for every q in the
// tile, so a pixel's aggregate [settled + seeded + refined] interval always
// brackets F_P(q) and the usual termination tests keep their guarantees
// (εKDV relative error; τKDV exact classification).
package engine

import (
	"math"
	"sort"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
)

const (
	// DefaultMaxFrontier caps the residual frontier the shared phase
	// produces. Larger frontiers push more traversal into the shared phase
	// (good: amortized over the tile's pixels) but grow the per-pixel
	// queue-seeding copy, which costs no bound evaluations but is O(cap).
	DefaultMaxFrontier = 256
	// promoteHits is how many pixels must expand a frontier node before it
	// is promoted (replaced tile-wide by its children).
	promoteHits = 1
	// promoteCapFactor bounds frontier growth under promotion, as a
	// multiple of the configured frontier cap.
	promoteCapFactor = 3
	// settleFrac is the fraction of the εKDV error slack the shared phase
	// may spend on settled-node gaps. It must stay < 1 so per-pixel
	// refinement can always reach ub ≤ (1+ε)·lb even after fully refining
	// the frontier (the residual gap is then exactly the settled gap).
	settleFrac = 0.9
	// tileEpsFrac stops shared expansion once the tile-uniform bounds are
	// already within this fraction of the ε budget — the whole tile is then
	// answerable with (at most) queue-seeding work per pixel.
	tileEpsFrac = 0.5
	// expandBudgetFactor caps shared-phase pops at this multiple of the
	// frontier cap, a guard against long leaf-pop runs.
	expandBudgetFactor = 4
	// subFrontierFactor scales the second (sub-tile) level's frontier cap
	// relative to the parent frontier it starts from. Sub-tile rectangles
	// are much smaller, so re-bounded parent seeds settle readily and the
	// sub level may expand further — but expansion that cannot settle only
	// grows the per-pixel seeding cost, so the room is proportional to the
	// parent frontier rather than a fixed deep cap.
	subFrontierFactor = 2
	// subFrontierSlack is the additive part of the sub-level cap, so small
	// parent frontiers still have room to reach settleable granularity.
	subFrontierSlack = 64
	// subExpandBudget caps the sub level's expansion pops. The sub level
	// amortizes over only a sub-tile's worth of pixels, so unbounded
	// expansion hoping for settles can cost more shared work than the pixels
	// it serves would spend refining — dense datasets at coarse resolutions
	// hit exactly that. ~12 pops per pixel of a default 4×4 sub-tile.
	subExpandBudget = 192
	// coarseSettleFrac is the share of the settle budget the OUTER level of a
	// two-level build may spend. Settling at the coarse rectangle costs the
	// budget at coarse-gap granularity, while the sub level settles the same
	// mass against a much smaller rectangle (envelope gaps shrink with the
	// square of the rect width) — so most of the budget is reserved for it.
	coarseSettleFrac = 0.25
)

// subCap is the sub-level frontier cap for a parent frontier of n seeds.
func subCap(n int) int { return subFrontierFactor*n + subFrontierSlack }

// FlatFrontier is the reusable result of one shared tile refinement. It is
// owned by a single worker (no internal locking) and is valid only for query
// points inside the tile rectangle it was built for.
type FlatFrontier struct {
	// Tile is the data-space rectangle spanning the tile's pixel centers.
	Tile geom.Rect
	// SettledLB/SettledUB are the summed tile-uniform bounds of settled
	// nodes: every pixel of the tile adds them as a constant.
	SettledLB, SettledUB float64
	// Decided reports a tile-wide τKDV classification: every pixel of the
	// tile is Hot (lb ≥ τ) or not (ub < τ) without per-pixel work.
	Decided bool
	Hot     bool
	// SettledGap tracks the worst-case per-pixel uncertainty of all settled
	// mass (constant settles plus envelope settles, across every level that
	// fed this frontier) — the spent part of the εKDV settle budget.
	SettledGap float64

	seeds          []fitem // residual frontier with tile-uniform bounds
	seedLB, seedUB float64
	hits           []int32 // per-seed expansion counts since last promotion

	// Collapsed envelope: when envOK, envLB/envUB aggregate per-node envelope
	// bounds into one quadratic form each (centered on envCenter), evaluated
	// in O(d) per pixel with zero node visits. Two usages share the machinery:
	//
	//   - εKDV (envSettled): the envelope IS settled mass — nodes whose
	//     envelope gap fits the settle budget are folded in and leave the
	//     frontier, and every pixel adds the envelope to its refinement base.
	//   - τKDV (!envSettled): the envelope covers the whole residual frontier
	//     as a pre-check — a pixel whose envelope bound already clears τ
	//     one-sidedly skips refinement entirely.
	envOK      bool
	envSettled bool
	envLB      bounds.TileEnvelope
	envUB      bounds.TileEnvelope
	envCenter  []float64
}

// State reports the tile-wide τKDV classification: decided means every
// pixel of the tile shares the hot bit without per-pixel work.
func (f *FlatFrontier) State() (decided, hot bool) { return f.Decided, f.Hot }

// Size returns the residual frontier's node count.
func (f *FlatFrontier) Size() int { return len(f.seeds) }

// base returns the settled contribution at q that every pixel query seeded
// from f starts from.
func (f *FlatFrontier) base(q []float64) (lb, ub float64) {
	lb, ub = f.SettledLB, f.SettledUB
	if f.envOK && f.envSettled {
		// The settled envelope is part of this pixel's base: one O(d)
		// evaluation per side covers every node folded into it.
		lb += f.envLB.Eval(q, f.envCenter)
		ub += f.envUB.Eval(q, f.envCenter)
		// Densities are not negative; in the subnormal tail the forms'
		// rounding can take either side below 0.
		if lb < 0 {
			lb = 0
		}
		if ub < 0 {
			ub = 0
		}
		if ub < lb {
			mid := (lb + ub) / 2
			lb, ub = mid, mid
		}
	}
	return lb, ub
}

// envBounds evaluates the collapsed frontier envelope at q, including the
// settled contribution. Valid only when envOK.
func (f *FlatFrontier) envBounds(q []float64) (lb, ub float64) {
	lb = f.SettledLB + f.envLB.Eval(q, f.envCenter)
	ub = f.SettledUB + f.envUB.Eval(q, f.envCenter)
	if lb < 0 {
		lb = 0
	}
	return lb, ub
}

// initEnv arms an empty settled envelope centered on the frontier's tile.
func (f *FlatFrontier) initEnv() {
	d := len(f.Tile.Min)
	if cap(f.envCenter) < d {
		f.envCenter = make([]float64, d)
	}
	f.envCenter = f.envCenter[:d]
	for i := 0; i < d; i++ {
		f.envCenter[i] = (f.Tile.Min[i] + f.Tile.Max[i]) / 2
	}
	f.envLB.Reset(d)
	f.envUB.Reset(d)
	f.envOK, f.envSettled = true, true
}

// envFits reports whether a tile can carry envelopes: the forms are
// evaluated at offsets from the tile's center (Min+Max)/2, and where that
// sum or the squared extent overflows, 0·Inf would turn the bounds into
// NaN. Only tiles of a window wider than about 1e154, or near ±MaxFloat64,
// fail it; their nodes keep their rect bounds.
func envFits(tile geom.Rect) bool {
	var s float64
	for i := range tile.Min {
		d := tile.Max[i] - tile.Min[i]
		s += d*d + math.Abs(tile.Min[i]+tile.Max[i])
	}
	return s <= math.MaxFloat64
}

// inheritEnv copies a parent frontier's settled envelope — valid here because
// this frontier's tile lies inside the parent's. The parent's center is kept
// (the forms are expressed about it).
func (f *FlatFrontier) inheritEnv(parent *FlatFrontier) {
	if !parent.envOK || !parent.envSettled {
		return
	}
	f.envCenter = append(f.envCenter[:0], parent.envCenter...)
	f.envLB.CopyFrom(&parent.envLB)
	f.envUB.CopyFrom(&parent.envUB)
	f.envOK, f.envSettled = true, true
}

func (f *FlatFrontier) reset(tile geom.Rect) {
	// Copy the rect: callers reuse their rect buffers across tiles, while
	// the frontier (and Promote, which re-evaluates against Tile) may
	// outlive that reuse.
	f.Tile.Min = append(f.Tile.Min[:0], tile.Min...)
	f.Tile.Max = append(f.Tile.Max[:0], tile.Max...)
	f.SettledLB, f.SettledUB = 0, 0
	f.SettledGap = 0
	f.Decided, f.Hot = false, false
	f.seeds = f.seeds[:0]
	f.seedLB, f.seedUB = 0, 0
	f.hits = f.hits[:0]
	f.envOK, f.envSettled = false, false
}

// setSeeds installs the residual frontier, assigning seed indices and
// recomputing the seeded bound sums.
func (f *FlatFrontier) setSeeds(items []fitem) {
	f.seeds = append(f.seeds[:0], items...)
	f.hits = f.hits[:0]
	f.seedLB, f.seedUB = 0, 0
	for i := range f.seeds {
		f.seeds[i].seed = int32(i)
		f.seedLB += f.seeds[i].lb
		f.seedUB += f.seeds[i].ub
		f.hits = append(f.hits, 0)
	}
}

// FlatTileEngine runs the shared (per-tile) phase of the tile-shared
// traversal on top of a per-pixel FlatEngine. Like the FlatEngine it owns
// scratch state and must not be shared between goroutines.
type FlatTileEngine struct {
	*FlatEngine

	tq      queue     // shared-phase queue
	scratch []fitem   // candidate staging for settle/promote passes
	gapbuf  []float64 // per-candidate envelope gaps for the settle sort
}

// NewFlatTileEngine wraps an engine for tile-shared rendering.
func NewFlatTileEngine(e *FlatEngine) *FlatTileEngine { return &FlatTileEngine{FlatEngine: e} }

// sharedExpand runs the shared max-gap expansion against the tile rectangle
// until stop() holds on the exact tile-uniform aggregate, the frontier cap
// is reached, or the tree is exhausted. The expansion starts from seeds
// (each re-bounded against this tile's rectangle) when given, else from the
// root — the former is the second level of the two-level traversal, where a
// coarse tile frontier is tightened against a sub-tile rectangle. It
// returns the surviving candidate items (a disjoint node cover of the
// un-settled dataset) in te.scratch and the candidate bound sums, with the
// pending part recomputed. stop receives the tile-uniform aggregate bounds
// including base, the already-settled contribution interval (valid for
// every pixel of the tile). It must be a pure, monotone predicate: it also
// sees incremental sums widened toward it (pending.trigger), so callers
// decide from the returned sums, which are the ones its last confirmed
// check saw.
func (te *FlatTileEngine) sharedExpand(tile geom.Rect, seeds []fitem, baseLB, baseUB float64, fcap, budget int, st *Stats, stop func(lb, ub float64) bool) (cands []fitem, sumLB, sumUB float64) {
	t, h := te.Tree, &te.tq
	h.items = h.items[:0]
	if seeds == nil {
		rlb, rub := te.Ev.FlatRectBounds(t, 0, tile)
		st.NodesEvaluated++
		h.push(fitem{id: 0, seed: -1, lb: rlb, ub: rub})
	}
	for _, it := range seeds {
		lb, ub := te.Ev.FlatRectBounds(t, it.id, tile)
		st.NodesEvaluated++
		h.push(fitem{id: it.id, seed: -1, lb: lb, ub: ub})
	}
	p := h.sums()
	// Popped leaves can't expand; they go straight to the candidate list.
	te.scratch = te.scratch[:0]
	leafLB, leafUB := baseLB, baseUB

	for pops := 0; len(h.items) > 0 && len(h.items)+len(te.scratch) < fcap && pops < budget; pops++ {
		if p.trigger(len(h.items), leafLB, leafUB, stop) {
			if p = h.sums(); stop(leafLB+p.lb, leafUB+p.ub) {
				break
			}
		}
		it := h.pop()
		id := it.id
		left := t.Left[id]
		if left == kdtree.NoChild {
			te.scratch = append(te.scratch, it)
			leafLB += it.lb
			leafUB += it.ub
			p = p.drop(it)
			continue
		}
		right := t.Right[id]
		llb, lub := te.Ev.FlatRectBounds(t, left, tile)
		rlb, rub := te.Ev.FlatRectBounds(t, right, tile)
		st.NodesEvaluated += 2
		l, r := fitem{id: left, seed: -1, lb: llb, ub: lub}, fitem{id: right, seed: -1, lb: rlb, ub: rub}
		h.push(l)
		h.push(r)
		p = p.split(it, l, r)
	}
	te.scratch = append(te.scratch, h.items...)
	p = h.sums()
	return te.scratch, leafLB + p.lb, leafUB + p.ub
}

// BuildFrontierEps runs the shared phase for an εKDV tile: expand until the
// tile-uniform bounds are within tileEpsFrac·ε or the frontier cap is hit,
// then settle the smallest-gap nodes within the settleFrac·ε error budget —
// into the collapsed envelope when the evaluator supports it (the envelope
// gap is second order in the tile size, so nearly the whole frontier usually
// fits the budget), else as tile-constant bounds.
func (te *FlatTileEngine) BuildFrontierEps(tile geom.Rect, eps float64, f *FlatFrontier) Stats {
	return te.buildEps(tile, nil, DefaultMaxFrontier, eps, 1, f)
}

// BuildFrontierEpsCoarse is BuildFrontierEps for the OUTER level of a
// two-level build: it spends only coarseSettleFrac of the settle budget,
// reserving the rest for the sub level's far cheaper settles.
func (te *FlatTileEngine) BuildFrontierEpsCoarse(tile geom.Rect, eps float64, f *FlatFrontier) Stats {
	return te.buildEps(tile, nil, DefaultMaxFrontier, eps, coarseSettleFrac, f)
}

// BuildFrontierEpsFrom is BuildFrontierEps seeded from a coarser frontier
// instead of the root — the second level of the two-level traversal. tile
// must lie inside parent's tile; parent's seeds are re-bounded against the
// finer rectangle (much tighter — rect-to-rect distance intervals shrink
// with the query rectangle) and its settled contribution carries over.
func (te *FlatTileEngine) BuildFrontierEpsFrom(parent *FlatFrontier, tile geom.Rect, eps float64, f *FlatFrontier) Stats {
	if len(parent.seeds) == 0 {
		// Fully settled parent: the sub-frontier is the same settled state
		// (a nil seed slice must not fall back to root expansion — the
		// settled mass would be counted twice).
		f.reset(tile)
		f.SettledLB, f.SettledUB = parent.SettledLB, parent.SettledUB
		f.SettledGap = parent.SettledGap
		f.inheritEnv(parent)
		return Stats{}
	}
	return te.buildEps(tile, parent, subCap(len(parent.seeds)), eps, 1, f)
}

func (te *FlatTileEngine) buildEps(tile geom.Rect, parent *FlatFrontier, fcap int, eps, budgetFrac float64, f *FlatFrontier) Stats {
	var st Stats
	f.reset(tile)
	var seeds []fitem
	var parentGap float64
	if parent != nil {
		seeds = parent.seeds
		f.SettledLB, f.SettledUB = parent.SettledLB, parent.SettledUB
		parentGap = parent.SettledGap
		f.inheritEnv(parent)
	}
	if !f.envOK && te.Ev.SupportsEnvelope() && envFits(tile) {
		f.initEnv()
	}
	// The expansion's stop test and settle budget see the settled envelope
	// through its exact value range over this tile: the envelope is settled
	// mass like the constant part, just query-dependent.
	baseLB, baseUB := f.SettledLB, f.SettledUB
	if f.envOK {
		elo, _ := f.envLB.RangeRect(tile, f.envCenter)
		_, uhi := f.envUB.RangeRect(tile, f.envCenter)
		baseLB += elo
		baseUB += uhi
		if baseLB < 0 {
			baseLB = 0
		}
	}
	budgetPops := expandBudgetFactor * fcap
	if parent != nil && budgetPops > subExpandBudget {
		budgetPops = subExpandBudget
	}
	cands, sumLB, _ := te.sharedExpand(tile, seeds, baseLB, baseUB, fcap, budgetPops, &st, func(lb, ub float64) bool {
		return ub <= (1+tileEpsFrac*eps)*lb
	})
	// Settle greedily by ascending gap while the cumulative settled gap
	// (including what the parent level already settled) stays within the
	// budget. sumLB lower-bounds every pixel's final lb (each candidate's
	// tile lb ≤ F_R(q)), so a total settled gap ≤ settleFrac·ε·sumLB keeps
	// ub ≤ (1+ε)·lb reachable for every pixel. With an envelope the per-node
	// cost of settling is its envelope gap — second order in the tile size —
	// instead of the loose rect-uniform gap, which is what empties most of
	// the frontier.
	budget := budgetFrac * settleFrac * eps * sumLB
	spent := parentGap
	rest := cands[:0]
	if f.envOK {
		gaps := te.gapbuf[:0]
		for i := range cands {
			g, _ := te.Ev.FlatRectEnvelopeGap(te.Tree, cands[i].id, tile)
			gaps = append(gaps, g)
		}
		te.gapbuf = gaps
		st.NodesEvaluated += len(cands)
		sortFlatCandidatesByGap(te.Tree, cands, gaps)
		for i := range cands {
			if spent+gaps[i] <= budget {
				spent += gaps[i]
				te.Ev.FlatAccumulateRectEnvelope(te.Tree, cands[i].id, tile, f.envCenter, &f.envLB, &f.envUB)
				st.NodesEvaluated++
				continue
			}
			rest = append(rest, cands[i])
		}
	} else {
		sortFlatCandidates(te.Tree, cands)
		for _, it := range cands {
			if g := fgap(it); spent+g <= budget {
				spent += g
				f.SettledLB += it.lb
				f.SettledUB += it.ub
				continue
			}
			rest = append(rest, it)
		}
	}
	f.SettledGap = spent
	f.setSeeds(rest)
	return st
}

// BuildFrontierTau runs the shared phase for a τKDV tile. When the tile's
// uniform bounds already decide the classification (lb ≥ τ tile-wide, or
// ub < τ tile-wide — strict, so densities exactly at τ stay hot exactly as
// in per-pixel refinement), the frontier comes back Decided and pixels need
// no work at all. Otherwise only zero-gap nodes settle, keeping every
// pixel's classification bit-identical to per-pixel refinement.
func (te *FlatTileEngine) BuildFrontierTau(tile geom.Rect, tau float64, f *FlatFrontier) Stats {
	return te.buildTau(tile, nil, 0, 0, DefaultMaxFrontier, tau, f)
}

// BuildFrontierTauFrom is BuildFrontierTau seeded from a coarser frontier
// (see BuildFrontierEpsFrom). A sub-tile can come back Decided even when the
// whole tile could not.
func (te *FlatTileEngine) BuildFrontierTauFrom(parent *FlatFrontier, tile geom.Rect, tau float64, f *FlatFrontier) Stats {
	if len(parent.seeds) == 0 {
		f.reset(tile)
		f.SettledLB, f.SettledUB = parent.SettledLB, parent.SettledUB
		f.Decided, f.Hot = parent.Decided, parent.Hot
		return Stats{}
	}
	return te.buildTau(tile, parent.seeds, parent.SettledLB, parent.SettledUB, subCap(len(parent.seeds)), tau, f)
}

func (te *FlatTileEngine) buildTau(tile geom.Rect, seeds []fitem, baseLB, baseUB float64, fcap int, tau float64, f *FlatFrontier) Stats {
	var st Stats
	f.reset(tile)
	f.SettledLB, f.SettledUB = baseLB, baseUB
	budgetPops := expandBudgetFactor * fcap
	if seeds != nil && budgetPops > subExpandBudget {
		budgetPops = subExpandBudget
	}
	cands, sumLB, sumUB := te.sharedExpand(tile, seeds, baseLB, baseUB, fcap, budgetPops, &st, func(lb, ub float64) bool {
		return lb >= tau || ub < tau
	})
	if sumLB >= tau || sumUB < tau {
		f.Decided, f.Hot = true, sumLB >= tau
		return st
	}
	rest := cands[:0]
	for _, it := range cands {
		if fgap(it) == 0 {
			f.SettledLB += it.lb
			f.SettledUB += it.ub
			continue
		}
		rest = append(rest, it)
	}
	f.setSeeds(rest)
	te.buildEnvelope(f, &st)
	return st
}

// Promote replaces frontier nodes that promoteHits pixels had to expand with
// their children (evaluated once against the tile rectangle), bounded by
// promoteCapFactor·cap — the "reuse the previous pixel's termination state"
// feedback that walks the shared frontier down to where pixels actually
// stop. Call it between pixels of one tile.
func (te *FlatTileEngine) Promote(f *FlatFrontier) Stats {
	var st Stats
	t := te.Tree
	limit := promoteCapFactor * DefaultMaxFrontier
	if len(f.seeds) >= limit {
		return st
	}
	promote := 0
	for i, h := range f.hits {
		if h >= promoteHits && !t.IsLeaf(f.seeds[i].id) {
			promote++
		}
	}
	if promote == 0 || len(f.seeds)+promote > limit {
		return st
	}
	out := te.scratch[:0]
	for i, it := range f.seeds {
		if f.hits[i] >= promoteHits && !t.IsLeaf(it.id) {
			left, right := t.Left[it.id], t.Right[it.id]
			llb, lub := te.Ev.FlatRectBounds(t, left, f.Tile)
			rlb, rub := te.Ev.FlatRectBounds(t, right, f.Tile)
			st.NodesEvaluated += 2
			out = append(out,
				fitem{id: left, seed: -1, lb: llb, ub: lub},
				fitem{id: right, seed: -1, lb: rlb, ub: rub})
			continue
		}
		out = append(out, it)
	}
	te.scratch = out
	f.setSeeds(out)
	if f.envOK && !f.envSettled {
		// The τKDV pre-check envelope covers the seed set, which just
		// changed; re-collapse it. (The εKDV settled envelope covers settled
		// mass only — promotion does not touch it.)
		te.buildEnvelope(f, &st)
	}
	return st
}

// buildEnvelope collapses the frontier's FULL seed set into the aggregate
// envelope forms — the τKDV pre-check variant (!envSettled): the envelope
// mirrors the residual frontier instead of replacing it, so EvalTauFrom can
// try a one-sided O(d) classification before seeding the refinement heap.
func (te *FlatTileEngine) buildEnvelope(f *FlatFrontier, st *Stats) {
	f.envSettled = false
	if !envFits(f.Tile) {
		f.envOK = false
		return
	}
	d := len(f.Tile.Min)
	if cap(f.envCenter) < d {
		f.envCenter = make([]float64, d)
	}
	f.envCenter = f.envCenter[:d]
	for i := 0; i < d; i++ {
		f.envCenter[i] = (f.Tile.Min[i] + f.Tile.Max[i]) / 2
	}
	f.envLB.Reset(d)
	f.envUB.Reset(d)
	for i := range f.seeds {
		if !te.Ev.FlatAccumulateRectEnvelope(te.Tree, f.seeds[i].id, f.Tile, f.envCenter, &f.envLB, &f.envUB) {
			f.envOK = false
			return
		}
		st.NodesEvaluated++
	}
	f.envOK = true
}

// sortFlatCandidatesByGap orders cands (and the parallel gaps slice) by
// ascending gap, tie-broken on the node's point range. The comparator is a
// total order over a disjoint node cover (Start values are unique across the
// cover), so the settle split is fully deterministic.
func sortFlatCandidatesByGap(t *kdtree.Tree, cands []fitem, gaps []float64) {
	sort.Sort(&flatCandGapSorter{t, cands, gaps})
}

type flatCandGapSorter struct {
	tree  *kdtree.Tree
	items []fitem
	gaps  []float64
}

func (s *flatCandGapSorter) Len() int { return len(s.items) }
func (s *flatCandGapSorter) Less(i, j int) bool {
	if s.gaps[i] != s.gaps[j] {
		return s.gaps[i] < s.gaps[j]
	}
	return s.tree.Start[s.items[i].id] < s.tree.Start[s.items[j].id]
}
func (s *flatCandGapSorter) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.gaps[i], s.gaps[j] = s.gaps[j], s.gaps[i]
}

// sortFlatCandidates orders items by ascending gap, tie-broken on the node's
// point range so the settle split is fully deterministic.
func sortFlatCandidates(t *kdtree.Tree, items []fitem) {
	sort.Slice(items, func(i, j int) bool {
		gi, gj := fgap(items[i]), fgap(items[j])
		if gi != gj {
			return gi < gj
		}
		return t.Start[items[i].id] < t.Start[items[j].id]
	})
}

// EvalEpsFrom answers an εKDV query for a pixel inside the frontier's tile,
// warm-started from the shared frontier. The guarantee is the same as
// EvalEps: the returned value is within relative error ε of F_P(q).
func (e *FlatEngine) EvalEpsFrom(f *FlatFrontier, q []float64, eps float64) (float64, Stats) {
	lb, ub, st := e.refineFrom(f, q, func(lb, ub float64) bool {
		return ub <= (1+eps)*lb
	})
	st.LB, st.UB = lb, ub
	return (lb + ub) / 2, st
}

// EvalTauFrom answers a τKDV query for a pixel inside the frontier's tile,
// warm-started from the shared frontier. The classification is exactly the
// per-pixel engine's: F_P(q) ≥ τ.
func (e *FlatEngine) EvalTauFrom(f *FlatFrontier, q []float64, tau float64) (bool, Stats) {
	if f.Decided {
		return f.Hot, Stats{}
	}
	if f.envOK && !f.envSettled {
		// Each envelope side is an independently valid bound, so a one-sided
		// decision here is exactly the classification refinement would reach
		// (strict ub < τ keeps densities at exactly τ hot, as everywhere).
		lb, ub := f.envBounds(q)
		if lb >= tau {
			return true, Stats{Iterations: 1, LB: lb, UB: ub}
		}
		if ub < tau {
			return false, Stats{Iterations: 1, LB: lb, UB: ub}
		}
	}
	lb, ub, st := e.refineFrom(f, q, func(lb, ub float64) bool {
		return lb >= tau || ub <= tau
	})
	st.LB, st.UB = lb, ub
	return lb >= tau, st
}

// refineFrom is the Table 3 refinement loop seeded from a tile frontier
// instead of the root: the queue starts with the frontier's tile-uniform
// bounds (no bound evaluations — they were computed once per tile) plus the
// settled contribution as a constant base, and per-query bounds are spent
// only on the nodes this pixel actually needs refined. Expansions of seed
// items are recorded in the frontier's hit counters for Promote. As in
// refine, stops are decided on recomputed pending sums (pending.trigger).
func (e *FlatEngine) refineFrom(f *FlatFrontier, q []float64, done func(lb, ub float64) bool) (flb, fub float64, st Stats) {
	t, h := e.Tree, &e.q
	p := h.seed(f.seeds, f.seedLB, f.seedUB)
	baseLB, baseUB := f.base(q)
	var exactAcc float64
	for len(h.items) > 0 {
		if p.trigger(len(h.items), baseLB+exactAcc, baseUB+exactAcc, done) {
			if p = h.sums(); done(baseLB+exactAcc+p.lb, baseUB+exactAcc+p.ub) {
				break
			}
		}
		st.Iterations++
		it := h.pop()
		id := it.id
		left := t.Left[id]
		if left == kdtree.NoChild {
			if it.seed >= 0 {
				// A leaf seed still carries its loose tile-uniform bounds.
				// Tighten with this pixel's bounds before committing to an
				// exact scan — the per-query bounds usually shrink the gap
				// enough that the scan is never needed.
				llb, lub := e.Ev.FlatBounds(t, id, q)
				st.NodesEvaluated++
				n := fitem{id: id, seed: -1, lb: llb, ub: lub}
				h.push(n)
				p = p.replace(it, n)
				continue
			}
			exactAcc += e.Ev.FlatExactNode(t, id, q)
			st.LeafScans++
			st.PointsScanned += t.Size(id)
			p = p.drop(it)
			continue
		}
		if it.seed >= 0 {
			f.hits[it.seed]++
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
	// Fully refined, only the settled tile-wide gap remains.
	flb, fub = h.bounds(p, baseLB+exactAcc, baseUB+exactAcc)
	return flb, fub, st
}
