package quad

import (
	"context"
	"fmt"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/oracle"
)

// acquireEngine hands out a per-goroutine render engine of the configured
// layout (engines hold scratch buffers and a reusable priority queue, so
// they cannot be shared).
func (k *KDV) acquireEngine() (engine.Renderer, error) {
	if k.proto == nil {
		return nil, fmt.Errorf("quad: method %s does not use the bound engine", k.cfg.method)
	}
	if r, ok := k.engines.Get().(engine.Renderer); ok {
		return r, nil
	}
	return k.newRenderer()
}

func (k *KDV) releaseEngine(r engine.Renderer) { k.engines.Put(r) }

// renderScratch is the pooled per-worker state of a tile render: the
// worker's render engine, reusable frontiers of the engine's layout, and
// the query/rect buffers — everything the hot path would otherwise allocate
// per tile.
type renderScratch struct {
	r                engine.Renderer
	frontier         engine.Front // tile-level frontier
	sub              engine.Front // sub-tile frontier (second level)
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
		s = &renderScratch{q: make([]float64, 2)}
	}
	s.r = r
	if s.frontier == nil {
		// Frontiers are layout-specific; the layout is fixed per KDV, so the
		// scratch's frontiers always match the pooled renderers.
		s.frontier = r.NewFront()
		s.sub = r.NewFront()
	}
	k.scratchLive.Add(1)
	return s, nil
}

func (k *KDV) releaseRenderScratch(s *renderScratch) {
	k.releaseEngine(s.r)
	s.r = nil
	k.tileScratch.Put(s)
	k.scratchLive.Add(-1)
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

// EstimateCtx is Estimate under a context: an already-cancelled context
// fails fast with ctx.Err() before any evaluation work. A single point
// query refines in microseconds, so no mid-query poll is needed — batch
// callers (renders, ThresholdStats) poll between queries instead.
func (k *KDV) EstimateCtx(ctx context.Context, q []float64, eps float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return k.Estimate(q, eps)
}

// IsHotCtx is IsHot under a context (see EstimateCtx).
func (k *KDV) IsHotCtx(ctx context.Context, q []float64, tau float64) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return k.IsHot(q, tau)
}

// IsHot answers a τKDV query: whether F_P(q) ≥ τ. For MethodExact and
// MethodZOrder the density is computed directly and compared.
func (k *KDV) IsHot(q []float64, tau float64) (bool, error) {
	if err := k.checkQuery(q); err != nil {
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
