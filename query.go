package quad

import (
	"fmt"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/oracle"
)

// acquireEngine hands out a per-goroutine render engine (engines hold
// scratch buffers and a reusable priority queue, so they cannot be shared).
func (k *KDV) acquireEngine() (*engine.FlatTileEngine, error) {
	if k.proto == nil {
		return nil, fmt.Errorf("quad: method %s does not use the bound engine", k.cfg.method)
	}
	if r, ok := k.engines.Get().(*engine.FlatTileEngine); ok {
		return r, nil
	}
	return k.newRenderer()
}

func (k *KDV) releaseEngine(r *engine.FlatTileEngine) { k.engines.Put(r) }

// renderScratch is the pooled per-worker state of a tile render: the
// worker's render engine, its sub-tile frontier, and the query/rect
// buffers — everything the hot path would otherwise allocate per sub-tile.
// A tile's coarse frontier is not here: workers share it (see tileJob).
type renderScratch struct {
	r                *engine.FlatTileEngine
	sub              *engine.FlatFrontier // sub-tile frontier (second level)
	q                []float64
	rectMin, rectMax [2]float64
}

// tileRect returns the data-space rectangle spanned by the tile's pixel
// centers (the extreme query points of the tile), backed by the scratch's
// own buffers.
func (s *renderScratch) tileRect(g *grid.Grid, t tileSpan) geom.Rect {
	r := geom.Rect{Min: s.rectMin[:], Max: s.rectMax[:]}
	g.Query(t.x0, t.y0, r.Min)
	g.Query(t.x1-1, t.y1-1, r.Max)
	return r
}

// acquireRenderScratch hands out pooled tile-render scratch wired to a
// pooled engine.
func (k *KDV) acquireRenderScratch() (*renderScratch, error) {
	r, err := k.acquireEngine()
	if err != nil {
		return nil, err
	}
	s, _ := k.tileScratch.Get().(*renderScratch)
	if s == nil {
		s = &renderScratch{q: make([]float64, 2), sub: new(engine.FlatFrontier)}
	}
	s.r = r
	k.scratchLive.Add(1)
	return s, nil
}

func (k *KDV) releaseRenderScratch(s *renderScratch) {
	k.releaseEngine(s.r)
	s.r = nil
	k.tileScratch.Put(s)
	k.scratchLive.Add(-1)
}

// acquireFrontier hands out a pooled frontier for a render tile; the
// tileSched returns it once the tile's last unit has run.
func (k *KDV) acquireFrontier() *engine.FlatFrontier {
	if f, ok := k.frontiers.Get().(*engine.FlatFrontier); ok {
		return f
	}
	return new(engine.FlatFrontier)
}

func (k *KDV) checkQuery(q []float64) error {
	if len(q) != k.pts.Dim {
		return fmt.Errorf("quad: query has dimension %d, dataset has %d", len(q), k.pts.Dim)
	}
	return nil
}

// Density computes the exact kernel density F_P(q) by a sequential scan
// with Kahan–Neumaier compensated summation — the same accumulator the
// conformance oracle trusts, so the public exact answer is correct to one
// rounding of the true sum regardless of dataset size or skew.
func (k *KDV) Density(q []float64) (float64, error) {
	if err := k.checkQuery(q); err != nil {
		return 0, err
	}
	o := oracle.Oracle{
		Pts:     k.pts,
		Weights: k.weights,
		Kern:    k.cfg.kern.internal(),
		Gamma:   k.bw.Gamma,
		Weight:  k.bw.Weight,
	}
	return o.Density(q), nil
}

// Estimate answers an εKDV query: a value R with |R − F_P(q)| ≤ ε·F_P(q).
// For MethodExact and MethodZOrder the method's native evaluation is
// returned (exact, respectively sample-exact with a probabilistic
// guarantee).
func (k *KDV) Estimate(q []float64, eps float64) (float64, error) {
	if err := k.checkQuery(q); err != nil {
		return 0, err
	}
	if err := checkEps(eps); err != nil {
		return 0, err
	}
	switch k.cfg.method {
	case MethodExact:
		return bounds.ExactScan(k.pts, k.weights, k.cfg.kern.internal(), k.bw.Gamma, k.bw.Weight, q), nil
	case MethodZOrder:
		return bounds.ExactScan(k.sample, nil, k.cfg.kern.internal(), k.bw.Gamma, k.sampleWeight, q), nil
	}
	e, err := k.acquireEngine()
	if err != nil {
		return 0, err
	}
	defer k.releaseEngine(e)
	v, _ := e.EvalEps(q, eps)
	return v, nil
}

// IsHot answers a τKDV query: whether F_P(q) ≥ τ. For MethodExact and
// MethodZOrder the density is computed directly and compared.
func (k *KDV) IsHot(q []float64, tau float64) (bool, error) {
	if err := k.checkQuery(q); err != nil {
		return false, err
	}
	if err := checkTau(tau); err != nil {
		return false, err
	}
	switch k.cfg.method {
	case MethodExact:
		return bounds.ExactScan(k.pts, k.weights, k.cfg.kern.internal(), k.bw.Gamma, k.bw.Weight, q) >= tau, nil
	case MethodZOrder:
		return bounds.ExactScan(k.sample, nil, k.cfg.kern.internal(), k.bw.Gamma, k.sampleWeight, q) >= tau, nil
	}
	e, err := k.acquireEngine()
	if err != nil {
		return false, err
	}
	defer k.releaseEngine(e)
	hot, _ := e.EvalTau(q, tau)
	return hot, nil
}

// DensityBounds returns the bounds the configured method derives for the
// whole dataset at q without any refinement — useful for inspecting bound
// tightness (paper Section 7.3). Only bound-based methods support it.
func (k *KDV) DensityBounds(q []float64) (lb, ub float64, err error) {
	if err := k.checkQuery(q); err != nil {
		return 0, 0, err
	}
	e, err := k.acquireEngine()
	if err != nil {
		return 0, 0, err
	}
	defer k.releaseEngine(e)
	lb, ub = e.RootBounds(q)
	return lb, ub, nil
}
