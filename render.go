package quad

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/progressive"
	"github.com/quadkdv/quad/internal/render"
	"github.com/quadkdv/quad/internal/stats"
	"github.com/quadkdv/quad/internal/trace"
)

// DensityMap is a rendered density raster: Values[y*Res.W+x] is the density
// of pixel (x, y), with pixel (0, 0) at the lower-left corner of the
// data-space window.
type DensityMap struct {
	Res    Resolution
	Values []float64
	// WindowMin/WindowMax are the data-space corners of the rendered
	// window.
	WindowMin, WindowMax [2]float64
}

// At returns the density value of pixel (x, y).
func (m *DensityMap) At(x, y int) float64 { return m.Values[y*m.Res.W+x] }

// MuSigma returns the mean and standard deviation of the map's density
// values — the statistics the paper's τ thresholds are expressed in.
func (m *DensityMap) MuSigma() (mu, sigma float64) { return stats.MuSigma(m.Values) }

// Release returns the map's value buffer to the shared render pool and
// clears Values. Call it once the map is no longer needed (e.g. after
// encoding a PNG) so subsequent renders at the same resolution reuse the
// raster instead of re-allocating it; the map must not be used afterwards.
func (m *DensityMap) Release() {
	if m.Values != nil {
		putVals(m.Values)
		m.Values = nil
	}
}

// SavePNG renders the map through the heat-color ramp and writes a PNG.
// logScale applies a logarithmic color scale, which suits the heavy density
// skew of typical KDV data.
func (m *DensityMap) SavePNG(path string, logScale bool) error {
	v := &grid.Values{Res: m.Res.internal(), Data: m.Values}
	scale := render.Linear
	if logScale {
		scale = render.Log
	}
	return render.SavePNG(path, render.Heatmap(v, scale))
}

// HotspotMap is a rendered τKDV raster: Hot[y*Res.W+x] reports whether
// pixel (x, y) has density ≥ τ.
type HotspotMap struct {
	Res                  Resolution
	Tau                  float64
	Hot                  []bool
	WindowMin, WindowMax [2]float64
}

// At reports whether pixel (x, y) is hot.
func (m *HotspotMap) At(x, y int) bool { return m.Hot[y*m.Res.W+x] }

// HotFraction returns the fraction of hot pixels. An empty map has no hot
// pixels, so its fraction is 0 (not NaN).
func (m *HotspotMap) HotFraction() float64 {
	if len(m.Hot) == 0 {
		return 0
	}
	var n int
	for _, h := range m.Hot {
		if h {
			n++
		}
	}
	return float64(n) / float64(len(m.Hot))
}

// Release returns the map's mask buffer to the shared render pool and
// clears Hot; the map must not be used afterwards.
func (m *HotspotMap) Release() {
	if m.Hot != nil {
		putHot(m.Hot)
		m.Hot = nil
	}
}

// SavePNG writes the two-color hotspot map as a PNG.
func (m *HotspotMap) SavePNG(path string) error {
	img, err := render.Binary(m.Res.internal(), m.Hot)
	if err != nil {
		return err
	}
	return render.SavePNG(path, img)
}

// Window is a 2-d data-space rectangle selecting the region a render
// covers — the pan/zoom primitive for interactive exploration. The zero
// Window means "the dataset's bounding box plus the configured margin".
type Window struct {
	MinX, MinY, MaxX, MaxY float64
}

// IsZero reports whether the window is unset.
func (w Window) IsZero() bool { return w == Window{} }

// Validate reports whether a non-zero window can be rendered: its corners
// must be finite, and so must its extents, from which a pixel's data-space
// size derives; its extents must be positive. Every windowed render entry
// point calls it.
func (w Window) Validate() error {
	for _, v := range [...]float64{w.MinX, w.MinY, w.MaxX, w.MaxY, w.MaxX - w.MinX, w.MaxY - w.MinY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("quad: non-finite window [%g,%g]x[%g,%g]", w.MinX, w.MaxX, w.MinY, w.MaxY)
		}
	}
	if w.MaxX <= w.MinX || w.MaxY <= w.MinY {
		return fmt.Errorf("quad: degenerate window [%g,%g]x[%g,%g]", w.MinX, w.MaxX, w.MinY, w.MaxY)
	}
	return nil
}

func (k *KDV) newGrid(res Resolution) (*grid.Grid, error) {
	return k.newGridIn(res, Window{})
}

func (k *KDV) newGridIn(res Resolution, w Window) (*grid.Grid, error) {
	if k.pts.Dim != 2 {
		return nil, fmt.Errorf("quad: rendering requires a 2-d dataset, got %d-d (use Estimate for general KDE)", k.pts.Dim)
	}
	if w.IsZero() {
		if k.fullRect.Dim() == 2 {
			// Sharded KDV (WithShard): the default window covers the FULL
			// dataset's bounding box, not the shard's, so per-shard rasters
			// align pixel for pixel and merge by addition.
			r := k.fullRect.Clone()
			for i := 0; i < 2; i++ {
				m := (r.Max[i] - r.Min[i]) * k.cfg.seedWindow
				r.Min[i] -= m
				r.Max[i] += m
			}
			return grid.New(res.internal(), r)
		}
		return grid.ForDataset(res.internal(), k.pts, k.cfg.seedWindow)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return grid.New(res.internal(), geomRect(w))
}

// checkEps rejects a relative error the εKDV guarantee does not cover:
// negative values, and NaN, which every ordered comparison lets through.
func checkEps(eps float64) error {
	if !(eps >= 0) {
		return fmt.Errorf("quad: relative error %g is not a number ≥ 0", eps)
	}
	return nil
}

// defaultTileSize is the default pixel tile edge for tile-shared rendering
// (see WithTileSize): 16×16 tiles amortize the shared kd-tree refinement
// over 256 pixels while staying small enough that tile-uniform bounds are
// tight.
const defaultTileSize = 16

// subTileSize is the second level of the tile-shared traversal: within a
// tile, the shared frontier is tightened once per subTileSize×subTileSize
// pixel block before pixels warm-start from it.
const subTileSize = 4

// tileSize returns the effective tile edge: the configured value, 1 for
// "sharing disabled", or the default.
func (k *KDV) tileSize() int {
	switch {
	case k.cfg.tileSize >= 2:
		return k.cfg.tileSize
	case k.cfg.tileSize == 1:
		return 1
	default:
		return defaultTileSize
	}
}

// tileSpan is one work unit of the render scheduler: the pixel block
// [x0, x1) × [y0, y1).
type tileSpan struct{ x0, y0, x1, y1 int }

// tileSpans decomposes the raster into row-major size×size tiles (edge
// tiles clipped).
func tileSpans(res grid.Resolution, size int) []tileSpan {
	if size < 1 {
		size = 1
	}
	nx := (res.W + size - 1) / size
	ny := (res.H + size - 1) / size
	spans := make([]tileSpan, 0, nx*ny)
	for ty := 0; ty < ny; ty++ {
		y0 := ty * size
		y1 := y0 + size
		if y1 > res.H {
			y1 = res.H
		}
		for tx := 0; tx < nx; tx++ {
			x0 := tx * size
			x1 := x0 + size
			if x1 > res.W {
				x1 = res.W
			}
			spans = append(spans, tileSpan{x0, y0, x1, y1})
		}
	}
	return spans
}

// valsPool recycles full-raster float64 buffers across renders, so repeated
// server renders at steady resolutions stop re-allocating W×H slices. Maps
// built on pooled buffers return them through Release.
var valsPool sync.Pool

func getVals(n int) []float64 {
	if p, ok := valsPool.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func putVals(v []float64) {
	if cap(v) == 0 {
		return
	}
	v = v[:0]
	valsPool.Put(&v)
}

// hotPool is valsPool's analogue for τKDV masks.
var hotPool sync.Pool

func getHot(n int) []bool {
	if p, ok := hotPool.Get().(*[]bool); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]bool, n)
}

func putHot(h []bool) {
	if cap(h) == 0 {
		return
	}
	h = h[:0]
	hotPool.Put(&h)
}

// renderDepthBuckets is the number of refinement-depth buckets in
// RenderStats.DepthPixels: bucket 0 holds pixels settled with zero queue
// pops, bucket d (1 ≤ d < 8) pixels settled in [2^(d-1), 2^d) pops, and the
// last bucket everything deeper.
const renderDepthBuckets = 9

// RenderStats aggregates the work one render performed across all workers —
// the observability behind the benchmarks' ns/pixel and nodes/pixel
// trajectories, and the payload of the server's X-KDV-Stats-* headers and
// slow-query log.
type RenderStats struct {
	// Pixels is the number of pixels evaluated.
	Pixels int
	// Tiles is the number of pixel tiles scheduled; TilesDecided counts the
	// τKDV tiles classified whole by the shared phase (zero per-pixel work).
	Tiles, TilesDecided int
	// Workers is the number of goroutines that ran the render's tiles:
	// min(WithWorkers, scheduled tiles), or 1 for a progressive render.
	// Besides the timings, it is the only field that varies with the
	// worker count.
	Workers int
	// SharedNodeEvals counts tile-uniform bound evaluations (shared phase
	// and frontier promotions), amortized over each tile's pixels.
	SharedNodeEvals int
	// FrontierPromotions counts the frontier expansions triggered by the
	// coherence signal (promoteHits adjacent pixels expanding the same
	// node) during per-pixel refinement.
	FrontierPromotions int
	// Iterations, NodesEvaluated, LeafScans and PointsScanned are the
	// per-pixel refinement counters summed over every pixel (see
	// engine.Stats).
	Iterations, NodesEvaluated, LeafScans, PointsScanned int
	// DepthPixels histograms refined pixels by queue pops needed to settle
	// them: bucket 0 is zero pops (the warm-started frontier already decided
	// the pixel), bucket d is [2^(d-1), 2^d) pops, the last bucket is
	// everything deeper. Pixels filled from decided tile envelopes do not
	// appear here, so the sum can be below Pixels.
	DepthPixels [renderDepthBuckets]int
	// Elapsed is the render's wall-clock time (set by the *Stats render
	// entry points). SharedElapsed is the time spent building tile/sub-tile
	// frontiers, summed across workers — CPU time of the shared stage, not
	// wall time; SharedElapsed/Workers estimates its wall share (promotion
	// work is counted in the per-pixel remainder).
	Elapsed, SharedElapsed time.Duration
}

// NodesPerPixel returns bound evaluations per pixel, counting the shared
// tile work against the pixels it was amortized over.
func (s RenderStats) NodesPerPixel() float64 {
	if s.Pixels == 0 {
		return 0
	}
	return float64(s.NodesEvaluated+s.SharedNodeEvals) / float64(s.Pixels)
}

func (s *RenderStats) addPixel(st engine.Stats) {
	s.Iterations += st.Iterations
	s.NodesEvaluated += st.NodesEvaluated
	s.LeafScans += st.LeafScans
	s.PointsScanned += st.PointsScanned
	d := bits.Len(uint(st.Iterations))
	if d >= renderDepthBuckets {
		d = renderDepthBuckets - 1
	}
	s.DepthPixels[d]++
}

func (s *RenderStats) addShared(st engine.Stats) { s.SharedNodeEvals += st.NodesEvaluated }

// addPromote records a Promote result: promotions re-evaluate bounds for
// the expanded node's children, so a non-zero eval count means exactly one
// promotion happened.
func (s *RenderStats) addPromote(st engine.Stats) {
	if st.NodesEvaluated > 0 {
		s.SharedNodeEvals += st.NodesEvaluated
		s.FrontierPromotions++
	}
}

// sharedStart marks the start of a shared-stage timing window; it costs
// nothing unless the render is collecting stats.
func sharedStart(timed bool) time.Time {
	if !timed {
		return time.Time{}
	}
	return time.Now()
}

func (s *RenderStats) endShared(timed bool, t0 time.Time) {
	if timed {
		s.SharedElapsed += time.Since(t0)
	}
}

func (s *RenderStats) merge(o RenderStats) {
	s.Tiles += o.Tiles
	s.TilesDecided += o.TilesDecided
	s.SharedNodeEvals += o.SharedNodeEvals
	s.FrontierPromotions += o.FrontierPromotions
	s.Iterations += o.Iterations
	s.NodesEvaluated += o.NodesEvaluated
	s.LeafScans += o.LeafScans
	s.PointsScanned += o.PointsScanned
	for i, n := range o.DepthPixels {
		s.DepthPixels[i] += n
	}
	s.SharedElapsed += o.SharedElapsed
}

// emitRenderSpans records post-hoc render-stage spans on the context's
// trace (no-op when the context carries none), decomposing the render's
// wall time at the RenderStats stage boundaries: a parent render span, a
// shared_frontier child and a pixel_refinement child. SharedElapsed is CPU
// time summed across workers, not wall time, so the shared_frontier child
// spans the per-worker mean SharedElapsed/Workers (clamped to the wall
// window) and carries the CPU sum as cpu_ms and the worker count as
// workers. Call after st.Elapsed has been set.
func emitRenderSpans(ctx context.Context, name string, start time.Time, st RenderStats, err error) {
	tr := trace.FromContext(ctx)
	if tr == nil {
		return
	}
	end := start.Add(st.Elapsed)
	sp := tr.Add(name, trace.SpanFromContext(ctx), start, end,
		trace.Int("pixels", st.Pixels),
		trace.Int("tiles", st.Tiles),
		trace.Int("tiles_decided", st.TilesDecided),
		trace.Int("node_evals", st.NodesEvaluated),
		trace.Int("shared_evals", st.SharedNodeEvals),
		trace.Float64("nodes_per_pixel", st.NodesPerPixel()),
	)
	if err != nil {
		sp.SetAttrs(trace.Str("error", err.Error()))
	}
	shared := st.SharedElapsed
	if st.Workers > 1 {
		shared /= time.Duration(st.Workers)
	}
	if shared > st.Elapsed {
		shared = st.Elapsed
	}
	mid := start.Add(shared)
	tr.Add("shared_frontier", sp, start, mid,
		trace.DurMs("cpu_ms", st.SharedElapsed),
		trace.Int("workers", st.Workers),
		trace.Int("shared_evals", st.SharedNodeEvals),
		trace.Int("promotions", st.FrontierPromotions))
	tr.Add("pixel_refinement", sp, mid, end,
		trace.Int("iterations", st.Iterations),
		trace.Int("node_evals", st.NodesEvaluated),
		trace.Int("leaf_scans", st.LeafScans),
		trace.Int("points_scanned", st.PointsScanned))
}

// renderPass describes one full-raster evaluation: εKDV (density values) or
// τKDV (0/1 hot values), with an optional stats sink and an optional
// per-pixel work-map sink.
type renderPass struct {
	eps   float64
	tau   float64
	isTau bool
	stats *RenderStats
	work  *WorkMap
}

// renderValues evaluates every pixel of g into a pooled buffer. Workers
// claim fixed-size pixel tiles from a shared cursor — a work-stealing queue,
// so hotspot-heavy tiles don't stall the render the way static row ranges
// did — and each tile is evaluated independently with the tile-shared
// traversal (one shared kd-tree refinement per tile, per-pixel refinement
// warm-started from the residual frontier). Tile results do not depend on
// which worker computes them, so output is bit-identical for every worker
// count. Each worker polls ctx between tiles and between pixel rows inside
// a tile (large tiles would otherwise delay cancellation by a whole tile's
// work); the first context error is returned after all workers have exited.
func (k *KDV) renderValues(ctx context.Context, g *grid.Grid, pass renderPass) ([]float64, error) {
	vals := getVals(g.Res.Pixels())
	size := k.tileSize()
	sched := size
	if sched < 2 {
		// Sharing disabled: tiles remain the scheduling unit, just bigger
		// to keep cursor contention negligible.
		sched = 2 * defaultTileSize
	}
	spans := tileSpans(g.Res, sched)
	workers := min(k.cfg.workers, len(spans))
	if pass.stats != nil {
		pass.stats.Workers = workers
	}
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		statsMu  sync.Mutex
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local RenderStats
			run, cleanup, err := k.newTileRunner(ctx, g, size, pass, &local)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			defer func() {
				cleanup()
				if pass.stats != nil {
					statsMu.Lock()
					pass.stats.merge(local)
					statsMu.Unlock()
				}
			}()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				run(spans[i], vals)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		putVals(vals)
		return nil, err
	}
	if firstErr != nil {
		putVals(vals)
		return nil, firstErr
	}
	if pass.stats != nil {
		pass.stats.Pixels += g.Res.Pixels()
	}
	return vals, nil
}

// newTileRunner builds one worker's tile evaluator for the pass. The
// returned run writes every pixel of its span into vals; cleanup returns the
// worker's pooled scratch. run polls ctx between pixel rows and returns
// early once it is cancelled — partial tile output is fine because the
// caller discards the raster on any context error.
func (k *KDV) newTileRunner(ctx context.Context, g *grid.Grid, size int, pass renderPass, local *RenderStats) (run func(tileSpan, []float64), cleanup func(), err error) {
	kern := k.cfg.kern.internal()
	switch k.cfg.method {
	case MethodExact, MethodZOrder:
		pts, ws, wt := k.pts, k.weights, k.bw.Weight
		if k.cfg.method == MethodZOrder {
			pts, ws, wt = k.sample, nil, k.sampleWeight
		}
		q := make([]float64, 2)
		run = func(t tileSpan, vals []float64) {
			for y := t.y0; y < t.y1; y++ {
				if ctx.Err() != nil {
					return
				}
				for x := t.x0; x < t.x1; x++ {
					g.Query(x, y, q)
					v := bounds.ExactScan(pts, ws, kern, k.bw.Gamma, wt, q)
					if pass.isTau {
						if v >= pass.tau {
							v = 1
						} else {
							v = 0
						}
					}
					vals[g.Index(x, y)] = v
				}
			}
		}
		return run, func() {}, nil
	}
	s, err := k.acquireRenderScratch()
	if err != nil {
		return nil, nil, err
	}
	cleanup = func() { k.releaseRenderScratch(s) }
	// Shared-stage wall time is only measured when the caller asked for
	// stats; plain renders skip every clock read.
	timed := pass.stats != nil
	if size < 2 {
		// Tile sharing disabled: the paper's per-pixel refinement from the
		// root, kept as the WithTileSize(1) baseline.
		run = func(t tileSpan, vals []float64) {
			for y := t.y0; y < t.y1; y++ {
				if ctx.Err() != nil {
					return
				}
				for x := t.x0; x < t.x1; x++ {
					g.Query(x, y, s.q)
					var v float64
					var st engine.Stats
					if pass.isTau {
						var hot bool
						hot, st = s.r.EvalTau(s.q, pass.tau)
						if hot {
							v = 1
						}
					} else {
						v, st = s.r.EvalEps(s.q, pass.eps)
					}
					vals[g.Index(x, y)] = v
					local.addPixel(st)
					if pass.work != nil {
						pass.work.record(g.Index(x, y), st)
					}
				}
			}
		}
		return run, cleanup, nil
	}
	// runPixels evaluates a pixel span against one frontier. Serpentine
	// pixel order keeps successive queries adjacent, which is what makes the
	// frontier-promotion coherence signal meaningful.
	runPixels := func(t tileSpan, f engine.Front, vals []float64) {
		for y := t.y0; y < t.y1; y++ {
			if ctx.Err() != nil {
				return
			}
			x0, x1, dx := t.x0, t.x1-1, 1
			if (y-t.y0)%2 == 1 {
				x0, x1, dx = t.x1-1, t.x0, -1
			}
			for x := x0; ; x += dx {
				g.Query(x, y, s.q)
				var v float64
				var st engine.Stats
				if pass.isTau {
					var hot bool
					hot, st = s.r.EvalTauFrom(f, s.q, pass.tau)
					if hot {
						v = 1
					}
				} else {
					v, st = s.r.EvalEpsFrom(f, s.q, pass.eps)
				}
				vals[g.Index(x, y)] = v
				local.addPixel(st)
				if pass.work != nil {
					pass.work.record(g.Index(x, y), st)
				}
				local.addPromote(s.r.Promote(f))
				if x == x1 {
					break
				}
			}
		}
	}
	fill := func(t tileSpan, hot bool, vals []float64) {
		var v float64
		if hot {
			v = 1
		}
		for y := t.y0; y < t.y1; y++ {
			for x := t.x0; x < t.x1; x++ {
				vals[g.Index(x, y)] = v
			}
		}
	}
	// rootPixels evaluates a pixel span with per-pixel root refinement — the
	// fallback when a tile's shared frontier is measurably not worth seeding
	// from. Like the warm-started path it runs through the Renderer
	// interface, so the fallback decision and the refinement it triggers are
	// identical under the flat and pointer engine layouts.
	rootPixels := func(t tileSpan, vals []float64) {
		for y := t.y0; y < t.y1; y++ {
			if ctx.Err() != nil {
				return
			}
			for x := t.x0; x < t.x1; x++ {
				g.Query(x, y, s.q)
				v, st := s.r.EvalEps(s.q, pass.eps)
				vals[g.Index(x, y)] = v
				local.addPixel(st)
				if pass.work != nil {
					pass.work.record(g.Index(x, y), st)
				}
			}
		}
	}
	run = func(t tileSpan, vals []float64) {
		rect := s.tileRect(g, t)
		local.Tiles++
		if pass.isTau {
			t0 := sharedStart(timed)
			local.addShared(s.r.BuildFrontierTau(rect, pass.tau, s.frontier))
			local.endShared(timed, t0)
			if decided, hot := s.frontier.State(); decided {
				local.TilesDecided++
				fill(t, hot, vals)
				return
			}
		} else if size <= subTileSize {
			t0 := sharedStart(timed)
			local.addShared(s.r.BuildFrontierEps(rect, pass.eps, s.frontier))
			local.endShared(timed, t0)
		} else {
			t0 := sharedStart(timed)
			outSt := s.r.BuildFrontierEpsCoarse(rect, pass.eps, s.frontier)
			local.endShared(timed, t0)
			local.addShared(outSt)
			// Adaptive probe: build the first sub-frontier and evaluate the
			// tile's first pixel both warm-started and from the root. Dense
			// data under coarse pixels can leave frontiers that cost more to
			// seed from than root refinement saves; the probe measures the
			// actual per-pixel costs and the projected shared overhead, and
			// picks the cheaper strategy for the whole tile. The decision
			// depends only on deterministic per-tile state, so renders stay
			// bit-identical across worker counts.
			fx1, fy1 := t.x0+subTileSize, t.y0+subTileSize
			if fx1 > t.x1 {
				fx1 = t.x1
			}
			if fy1 > t.y1 {
				fy1 = t.y1
			}
			first := tileSpan{t.x0, t.y0, fx1, fy1}
			srect := s.tileRect(g, first)
			t0 = sharedStart(timed)
			subSt := s.r.BuildFrontierEpsFrom(s.frontier, srect, pass.eps, s.sub)
			local.endShared(timed, t0)
			local.addShared(subSt)
			g.Query(t.x0, t.y0, s.q)
			_, warmSt := s.r.EvalEpsFrom(s.sub, s.q, pass.eps)
			_, rootSt := s.r.EvalEps(s.q, pass.eps)
			local.addShared(rootSt) // probe overhead, not pixel work
			px := (t.x1 - t.x0) * (t.y1 - t.y0)
			nsub := ((t.x1 - t.x0 + subTileSize - 1) / subTileSize) *
				((t.y1 - t.y0 + subTileSize - 1) / subTileSize)
			overhead := (outSt.NodesEvaluated + nsub*subSt.NodesEvaluated) / px
			if warmSt.NodesEvaluated+overhead > rootSt.NodesEvaluated {
				rootPixels(t, vals)
				return
			}
			runPixels(first, s.sub, vals)
			for sy := t.y0; sy < t.y1; sy += subTileSize {
				sy1 := sy + subTileSize
				if sy1 > t.y1 {
					sy1 = t.y1
				}
				for sx := t.x0; sx < t.x1; sx += subTileSize {
					if sx == t.x0 && sy == t.y0 {
						continue
					}
					sx1 := sx + subTileSize
					if sx1 > t.x1 {
						sx1 = t.x1
					}
					sub := tileSpan{sx, sy, sx1, sy1}
					srect := s.tileRect(g, sub)
					t0 := sharedStart(timed)
					local.addShared(s.r.BuildFrontierEpsFrom(s.frontier, srect, pass.eps, s.sub))
					local.endShared(timed, t0)
					runPixels(sub, s.sub, vals)
				}
			}
			return
		}
		if size <= subTileSize {
			runPixels(t, s.frontier, vals)
			return
		}
		// Second level (τKDV): tighten the tile frontier against each
		// sub-tile's much smaller rectangle (rect-to-rect bounds shrink with
		// the query rect), amortized over the sub-tile's pixels, and
		// warm-start pixels from the sub-frontier.
		for sy := t.y0; sy < t.y1; sy += subTileSize {
			sy1 := sy + subTileSize
			if sy1 > t.y1 {
				sy1 = t.y1
			}
			for sx := t.x0; sx < t.x1; sx += subTileSize {
				sx1 := sx + subTileSize
				if sx1 > t.x1 {
					sx1 = t.x1
				}
				sub := tileSpan{sx, sy, sx1, sy1}
				srect := s.tileRect(g, sub)
				t0 := sharedStart(timed)
				local.addShared(s.r.BuildFrontierTauFrom(s.frontier, srect, pass.tau, s.sub))
				local.endShared(timed, t0)
				if decided, hot := s.sub.State(); decided {
					local.TilesDecided++
					fill(sub, hot, vals)
					continue
				}
				runPixels(sub, s.sub, vals)
			}
		}
	}
	return run, cleanup, nil
}

// progWarm warm-starts progressive εKDV evaluation with tile frontiers: the
// first pixel landing in a tile refines from the root (coarse levels touch
// each tile at most once, where building a frontier would cost more than it
// saves), the second touch builds the tile's shared frontier, and every
// later pixel in that tile seeds from it. Paired with Order.GroupByTile so
// deep levels visit each tile's pixels in bursts.
type progWarm struct {
	r                engine.Renderer
	g                *grid.Grid
	size, tilesX     int
	eps              float64
	touched          []bool
	fronts           []engine.Front
	rectMin, rectMax [2]float64
	// stats, when non-nil, accumulates the per-pixel and shared work
	// counters. Progressive evaluation is single-threaded, so plain field
	// updates suffice.
	stats *RenderStats
}

func (k *KDV) newProgWarm(g *grid.Grid, r engine.Renderer, eps float64, st *RenderStats) *progWarm {
	size := k.tileSize()
	if r == nil || size < 2 {
		return nil
	}
	tilesX := (g.Res.W + size - 1) / size
	tilesY := (g.Res.H + size - 1) / size
	return &progWarm{
		r:       r,
		g:       g,
		size:    size,
		tilesX:  tilesX,
		eps:     eps,
		touched: make([]bool, tilesX*tilesY),
		fronts:  make([]engine.Front, tilesX*tilesY),
		stats:   st,
	}
}

func (w *progWarm) eval(px, py int, q []float64) float64 {
	ti := (py/w.size)*w.tilesX + px/w.size
	if f := w.fronts[ti]; f != nil {
		v, st := w.r.EvalEpsFrom(f, q, w.eps)
		if w.stats != nil {
			w.stats.addPixel(st)
		}
		return v
	}
	if !w.touched[ti] {
		w.touched[ti] = true
		v, st := w.r.EvalEps(q, w.eps)
		if w.stats != nil {
			w.stats.addPixel(st)
		}
		return v
	}
	x0, y0 := (px/w.size)*w.size, (py/w.size)*w.size
	x1, y1 := x0+w.size, y0+w.size
	if x1 > w.g.Res.W {
		x1 = w.g.Res.W
	}
	if y1 > w.g.Res.H {
		y1 = w.g.Res.H
	}
	rect := geom.Rect{Min: w.rectMin[:], Max: w.rectMax[:]}
	w.g.Query(x0, y0, rect.Min)
	w.g.Query(x1-1, y1-1, rect.Max)
	f := w.r.NewFront()
	buildSt := w.r.BuildFrontierEps(rect, w.eps, f)
	w.fronts[ti] = f
	v, st := w.r.EvalEpsFrom(f, q, w.eps)
	if w.stats != nil {
		w.stats.Tiles++
		w.stats.addShared(buildSt)
		w.stats.addPixel(st)
	}
	return v
}

// evalCtx carries the per-worker evaluation state: the worker's private
// engine for bound-based methods, nil for scan-based methods.
type evalCtx struct {
	eng engine.Renderer
}

func (k *KDV) newEvalCtx() (*evalCtx, error) {
	if k.proto == nil {
		return &evalCtx{}, nil
	}
	e, err := k.acquireEngine()
	if err != nil {
		return nil, err
	}
	return &evalCtx{eng: e}, nil
}

func (c *evalCtx) release(k *KDV) {
	if c.eng != nil {
		k.releaseEngine(c.eng)
	}
}

// RenderEps computes the full εKDV color map at the given resolution over
// the dataset's bounding window.
func (k *KDV) RenderEps(res Resolution, eps float64) (*DensityMap, error) {
	return k.RenderEpsInCtx(context.Background(), res, eps, Window{})
}

// RenderEpsCtx is RenderEps under a context: cancellation (client
// disconnect, deadline) stops the row workers within one row of work each
// and returns ctx.Err().
func (k *KDV) RenderEpsCtx(ctx context.Context, res Resolution, eps float64) (*DensityMap, error) {
	return k.RenderEpsInCtx(ctx, res, eps, Window{})
}

// RenderEpsIn is RenderEps over an explicit data-space window — the
// pan/zoom form for interactive exploration. A zero Window selects the
// dataset's bounding box.
func (k *KDV) RenderEpsIn(res Resolution, eps float64, win Window) (*DensityMap, error) {
	return k.RenderEpsInCtx(context.Background(), res, eps, win)
}

// RenderEpsInCtx is RenderEpsIn under a context (see RenderEpsCtx).
func (k *KDV) RenderEpsInCtx(ctx context.Context, res Resolution, eps float64, win Window) (*DensityMap, error) {
	return k.renderEpsIn(ctx, res, eps, win, nil, nil)
}

// RenderEpsStats is RenderEps additionally reporting the render's work
// counters — the observability hook behind the repo's benchmarks.
func (k *KDV) RenderEpsStats(res Resolution, eps float64) (*DensityMap, RenderStats, error) {
	return k.RenderEpsStatsInCtx(context.Background(), res, eps, Window{})
}

// RenderEpsStatsInCtx is RenderEpsInCtx additionally reporting the render's
// work counters — the form the server uses for X-KDV-Stats-* headers and
// the slow-query log. On error the stats still describe the work done
// before the render stopped.
func (k *KDV) RenderEpsStatsInCtx(ctx context.Context, res Resolution, eps float64, win Window) (*DensityMap, RenderStats, error) {
	var st RenderStats
	start := time.Now()
	dm, err := k.renderEpsIn(ctx, res, eps, win, &st, nil)
	st.Elapsed = time.Since(start)
	emitRenderSpans(ctx, "render.eps", start, st, err)
	return dm, st, err
}

func (k *KDV) renderEpsIn(ctx context.Context, res Resolution, eps float64, win Window, st *RenderStats, work *WorkMap) (*DensityMap, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	g, err := k.newGridIn(res, win)
	if err != nil {
		return nil, err
	}
	vals, err := k.renderValues(ctx, g, renderPass{eps: eps, stats: st, work: work})
	if err != nil {
		return nil, err
	}
	return &DensityMap{
		Res:       res,
		Values:    vals,
		WindowMin: [2]float64{g.Window.Min[0], g.Window.Min[1]},
		WindowMax: [2]float64{g.Window.Max[0], g.Window.Max[1]},
	}, nil
}

// RenderTau computes the full τKDV two-color map at the given resolution.
func (k *KDV) RenderTau(res Resolution, tau float64) (*HotspotMap, error) {
	return k.RenderTauInCtx(context.Background(), res, tau, Window{})
}

// RenderTauCtx is RenderTau under a context (see RenderEpsCtx).
func (k *KDV) RenderTauCtx(ctx context.Context, res Resolution, tau float64) (*HotspotMap, error) {
	return k.RenderTauInCtx(ctx, res, tau, Window{})
}

// RenderTauIn is RenderTau over an explicit data-space window (see
// RenderEpsIn).
func (k *KDV) RenderTauIn(res Resolution, tau float64, win Window) (*HotspotMap, error) {
	return k.RenderTauInCtx(context.Background(), res, tau, win)
}

// RenderTauInCtx is RenderTauIn under a context (see RenderEpsCtx).
func (k *KDV) RenderTauInCtx(ctx context.Context, res Resolution, tau float64, win Window) (*HotspotMap, error) {
	return k.renderTauIn(ctx, res, tau, win, nil, nil)
}

// RenderTauStats is RenderTau additionally reporting the render's work
// counters (see RenderEpsStats).
func (k *KDV) RenderTauStats(res Resolution, tau float64) (*HotspotMap, RenderStats, error) {
	return k.RenderTauStatsInCtx(context.Background(), res, tau, Window{})
}

// RenderTauStatsInCtx is RenderTauInCtx additionally reporting the render's
// work counters (see RenderEpsStatsInCtx).
func (k *KDV) RenderTauStatsInCtx(ctx context.Context, res Resolution, tau float64, win Window) (*HotspotMap, RenderStats, error) {
	var st RenderStats
	start := time.Now()
	hm, err := k.renderTauIn(ctx, res, tau, win, &st, nil)
	st.Elapsed = time.Since(start)
	emitRenderSpans(ctx, "render.tau", start, st, err)
	return hm, st, err
}

func (k *KDV) renderTauIn(ctx context.Context, res Resolution, tau float64, win Window, st *RenderStats, work *WorkMap) (*HotspotMap, error) {
	g, err := k.newGridIn(res, win)
	if err != nil {
		return nil, err
	}
	vals, err := k.renderValues(ctx, g, renderPass{tau: tau, isTau: true, stats: st, work: work})
	if err != nil {
		return nil, err
	}
	hot := getHot(len(vals))
	for i, v := range vals {
		hot[i] = v != 0
	}
	putVals(vals)
	return &HotspotMap{
		Res:       res,
		Tau:       tau,
		Hot:       hot,
		WindowMin: [2]float64{g.Window.Min[0], g.Window.Min[1]},
		WindowMax: [2]float64{g.Window.Max[0], g.Window.Max[1]},
	}, nil
}

// ThresholdStats estimates the mean μ and standard deviation σ of the
// density over a stride-sampled pixel grid, the quantities the paper's τ
// ladder (μ ± kσ) is built from. Values are εKDV estimates with the given
// ε (use a small ε like 0.01).
func (k *KDV) ThresholdStats(res Resolution, stride int, eps float64) (mu, sigma float64, err error) {
	return k.ThresholdStatsCtx(context.Background(), res, stride, eps)
}

// ThresholdStatsCtx is ThresholdStats under a context: cancellation is
// polled between sample rows and returns ctx.Err().
func (k *KDV) ThresholdStatsCtx(ctx context.Context, res Resolution, stride int, eps float64) (mu, sigma float64, err error) {
	if stride < 1 {
		stride = 1
	}
	g, err := k.newGrid(res)
	if err != nil {
		return 0, 0, err
	}
	var samples []float64
	q := make([]float64, 2)
	for y := 0; y < res.H; y += stride {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		for x := 0; x < res.W; x += stride {
			g.Query(x, y, q)
			v, err := k.Estimate(q, eps)
			if err != nil {
				return 0, 0, err
			}
			samples = append(samples, v)
		}
	}
	mu, sigma = stats.MuSigma(samples)
	return mu, sigma, nil
}

// ProgressiveResult is a partial color map produced under a time budget.
type ProgressiveResult struct {
	Map *DensityMap
	// Evaluated is the number of pixels computed exactly (the rest carry
	// coarse fill values from enclosing regions).
	Evaluated int
	// Complete reports whether every pixel was evaluated before the budget
	// expired.
	Complete bool
	// Elapsed is the wall-clock time consumed.
	Elapsed time.Duration
	// Stats aggregates the refinement work of the evaluated pixels (zero
	// for scan-based methods, which perform no bound refinement). Pixels is
	// the evaluated count, not the raster size — progressive renders leave
	// the unevaluated remainder to coarse fill.
	Stats RenderStats
}

// RenderProgressive runs the progressive visualization framework (paper
// Section 6): pixels are εKDV-evaluated in quad-tree order and each value
// fills its sub-region until refined, so a spatially complete coarse map
// exists almost immediately. The run stops when budget elapses (≤ 0 means
// run to completion) or maxPixels pixels were evaluated (≤ 0 means all).
func (k *KDV) RenderProgressive(res Resolution, eps float64, budget time.Duration, maxPixels int) (*ProgressiveResult, error) {
	return k.RenderProgressiveInCtx(context.Background(), res, eps, budget, maxPixels, Window{})
}

// RenderProgressiveCtx is RenderProgressive under a context: cancellation
// is polled between evaluations and returns ctx.Err() promptly. Budget
// expiry still yields the normal partial result with a nil error;
// cancellation is the caller abandoning the render, so no result is
// returned.
func (k *KDV) RenderProgressiveCtx(ctx context.Context, res Resolution, eps float64, budget time.Duration, maxPixels int) (*ProgressiveResult, error) {
	return k.RenderProgressiveInCtx(ctx, res, eps, budget, maxPixels, Window{})
}

// RenderProgressiveIn is RenderProgressive over an explicit data-space
// window (see RenderEpsIn). A zero Window selects the dataset's bounding
// box.
func (k *KDV) RenderProgressiveIn(res Resolution, eps float64, budget time.Duration, maxPixels int, win Window) (*ProgressiveResult, error) {
	return k.RenderProgressiveInCtx(context.Background(), res, eps, budget, maxPixels, win)
}

// RenderProgressiveInCtx is RenderProgressiveIn under a context (see
// RenderProgressiveCtx).
func (k *KDV) RenderProgressiveInCtx(ctx context.Context, res Resolution, eps float64, budget time.Duration, maxPixels int, win Window) (*ProgressiveResult, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	g, err := k.newGridIn(res, win)
	if err != nil {
		return nil, err
	}
	order, err := progressive.BuildOrder(res.internal())
	if err != nil {
		return nil, err
	}
	ec, err := k.newEvalCtx()
	if err != nil {
		return nil, err
	}
	defer ec.release(k)
	rst := RenderStats{Workers: 1}
	warm := k.newProgWarm(g, ec.eng, eps, &rst)
	if warm != nil {
		order.GroupByTile(warm.size)
	}
	kern := k.cfg.kern.internal()
	q := make([]float64, 2)
	eval := func(px, py int) float64 {
		g.Query(px, py, q)
		switch k.cfg.method {
		case MethodExact:
			return bounds.ExactScan(k.pts, k.weights, kern, k.bw.Gamma, k.bw.Weight, q)
		case MethodZOrder:
			return bounds.ExactScan(k.sample, nil, kern, k.bw.Gamma, k.sampleWeight, q)
		default:
			if warm != nil {
				return warm.eval(px, py, q)
			}
			v, st := ec.eng.EvalEps(q, eps)
			rst.addPixel(st)
			return v
		}
	}
	r, ctxErr := progressive.RunCtx(ctx, order, eval, budget, maxPixels)
	if ctxErr != nil {
		return nil, ctxErr
	}
	rst.Pixels = r.Evaluated
	rst.Elapsed = r.Elapsed
	return &ProgressiveResult{
		Map: &DensityMap{
			Res:       res,
			Values:    r.Values.Data,
			WindowMin: [2]float64{g.Window.Min[0], g.Window.Min[1]},
			WindowMax: [2]float64{g.Window.Max[0], g.Window.Max[1]},
		},
		Evaluated: r.Evaluated,
		Complete:  r.Complete,
		Elapsed:   r.Elapsed,
		Stats:     rst,
	}, nil
}

// Snapshot is a partial color-map state streamed by
// RenderProgressiveStream: spatially complete at every level, refining
// monotonically across snapshots.
type Snapshot struct {
	// Map is the current raster. Its Values alias the live buffer; copy
	// them if the snapshot is retained beyond the callback.
	Map *DensityMap
	// Evaluated is the number of exactly evaluated pixels so far.
	Evaluated int
	// Level is the quad-tree refinement depth just completed.
	Level int
	// Elapsed is the wall-clock time since the render started.
	Elapsed time.Duration
	// Final marks the stream's last snapshot.
	Final bool
}

// RenderProgressiveStream is the streaming form of RenderProgressive: emit
// is invoked with a spatially complete partial map after every completed
// quad-tree refinement level and once at the end; returning false stops the
// render — the "user terminates the process at any time" interaction of
// paper Section 6. budget ≤ 0 means no time limit.
func (k *KDV) RenderProgressiveStream(res Resolution, eps float64, budget time.Duration, emit func(Snapshot) bool) (*ProgressiveResult, error) {
	return k.RenderProgressiveStreamCtx(context.Background(), res, eps, budget, emit)
}

// RenderProgressiveStreamCtx is RenderProgressiveStream under a context:
// cancellation is polled between evaluations, stops the stream without a
// final snapshot, and returns ctx.Err().
func (k *KDV) RenderProgressiveStreamCtx(ctx context.Context, res Resolution, eps float64, budget time.Duration, emit func(Snapshot) bool) (*ProgressiveResult, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, fmt.Errorf("quad: nil snapshot callback (use RenderProgressive for non-streaming renders)")
	}
	g, err := k.newGrid(res)
	if err != nil {
		return nil, err
	}
	order, err := progressive.BuildOrder(res.internal())
	if err != nil {
		return nil, err
	}
	ec, err := k.newEvalCtx()
	if err != nil {
		return nil, err
	}
	defer ec.release(k)
	rst := RenderStats{Workers: 1}
	warm := k.newProgWarm(g, ec.eng, eps, &rst)
	if warm != nil {
		order.GroupByTile(warm.size)
	}
	kern := k.cfg.kern.internal()
	q := make([]float64, 2)
	eval := func(px, py int) float64 {
		g.Query(px, py, q)
		switch k.cfg.method {
		case MethodExact:
			return bounds.ExactScan(k.pts, k.weights, kern, k.bw.Gamma, k.bw.Weight, q)
		case MethodZOrder:
			return bounds.ExactScan(k.sample, nil, kern, k.bw.Gamma, k.sampleWeight, q)
		default:
			if warm != nil {
				return warm.eval(px, py, q)
			}
			v, st := ec.eng.EvalEps(q, eps)
			rst.addPixel(st)
			return v
		}
	}
	dm := &DensityMap{
		Res:       res,
		WindowMin: [2]float64{g.Window.Min[0], g.Window.Min[1]},
		WindowMax: [2]float64{g.Window.Max[0], g.Window.Max[1]},
	}
	// Per-level spans: each completed quad-tree level becomes a post-hoc
	// span covering [previous snapshot, this snapshot] with the pixels and
	// node evaluations the level consumed.
	tr := trace.FromContext(ctx)
	parentSpan := trace.SpanFromContext(ctx)
	start := time.Now()
	var prevElapsed time.Duration
	prevEvaluated, prevNodes := 0, 0
	r, ctxErr := progressive.RunStreamCtx(ctx, order, eval, budget, 0, func(s progressive.Snapshot) bool {
		dm.Values = s.Values
		if tr != nil {
			sp := tr.Add(fmt.Sprintf("progressive.level.%d", s.Level), parentSpan,
				start.Add(prevElapsed), start.Add(s.Elapsed),
				trace.Int("level", s.Level),
				trace.Int("pixels", s.Evaluated-prevEvaluated),
				trace.Int("node_evals", rst.NodesEvaluated-prevNodes))
			if s.Final {
				sp.SetAttrs(trace.Str("final", "true"))
			}
			prevElapsed, prevEvaluated, prevNodes = s.Elapsed, s.Evaluated, rst.NodesEvaluated
		}
		return emit(Snapshot{
			Map:       dm,
			Evaluated: s.Evaluated,
			Level:     s.Level,
			Elapsed:   s.Elapsed,
			Final:     s.Final,
		})
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	dm.Values = r.Values.Data
	rst.Pixels = r.Evaluated
	rst.Elapsed = r.Elapsed
	return &ProgressiveResult{
		Map:       dm,
		Evaluated: r.Evaluated,
		Complete:  r.Complete,
		Elapsed:   r.Elapsed,
		Stats:     rst,
	}, nil
}

// geomRect converts a public Window to the internal rectangle type.
func geomRect(w Window) geom.Rect {
	return geom.Rect{Min: []float64{w.MinX, w.MinY}, Max: []float64{w.MaxX, w.MaxY}}
}
