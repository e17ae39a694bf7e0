package quad

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
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
// Window means DefaultWindow: the dataset's bounding box plus a 2% margin.
type Window struct {
	MinX, MinY, MaxX, MaxY float64
}

// IsZero reports whether the window is unset.
func (w Window) IsZero() bool { return w == Window{} }

// Validate reports whether a non-zero window can be rendered: its corners
// must be finite, and so must its extents, from which a pixel's data-space
// size derives; its extents must be positive. Request.Validate calls it.
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

// windowMargin is the fraction of the dataset's extent DefaultWindow adds on
// each side of its bounding box.
const windowMargin = 0.02

// newGridIn maps res onto w, or onto the default window when w is zero. A
// non-zero w must have passed Window.Validate.
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
				m := (r.Max[i] - r.Min[i]) * windowMargin
				r.Min[i] -= m
				r.Max[i] += m
			}
			return grid.New(res.internal(), r)
		}
		return grid.ForDataset(res.internal(), k.pts, windowMargin)
	}
	return grid.New(res.internal(), geomRect(w))
}

// maxRasterPixels is the library's raster cap: a render whose output raster
// (the sub-rectangle, for a sub-render) has more pixels is rejected before
// anything is allocated. 2²⁸ pixels is a 2 GiB εKDV raster, 54 times the
// server's 2560×1920 cap, and far below the sizes at which W×H overflows
// int or the allocation cannot succeed.
const maxRasterPixels = 1 << 28

// checkPixels rejects a w×h raster with a non-positive side or more than
// maxRasterPixels pixels. It compares by division, so sides whose product
// would overflow int are rejected instead of wrapping.
func checkPixels(w, h int) error {
	if w < 1 || h < 1 {
		return fmt.Errorf("quad: non-positive resolution %dx%d", w, h)
	}
	if w > maxRasterPixels/h {
		return fmt.Errorf("quad: resolution %dx%d exceeds the %d-pixel raster cap", w, h, maxRasterPixels)
	}
	return nil
}

// checkEps rejects a relative error the εKDV guarantee does not cover:
// negative values, and NaN, which every ordered comparison lets through.
func checkEps(eps float64) error {
	if !(eps >= 0) {
		return fmt.Errorf("quad: relative error %g is not a number ≥ 0", eps)
	}
	return nil
}

// checkTau rejects a τKDV threshold no density compares against: NaN, for
// which F ≥ τ is always false, so every pixel would refine to exhaustion
// and come out cold. ±Inf stays valid: the root bounds decide every pixel.
func checkTau(tau float64) error {
	if math.IsNaN(tau) {
		return fmt.Errorf("quad: threshold τ is NaN")
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

// tileSpan is the pixel block [x0, x1) × [y0, y1): a tile or a sub-tile.
type tileSpan struct{ x0, y0, x1, y1 int }

// subTiles is the number of subTileSize×subTileSize sub-tiles of t (edge
// sub-tiles clipped).
func subTiles(t tileSpan) int {
	return ((t.x1 - t.x0 + subTileSize - 1) / subTileSize) *
		((t.y1 - t.y0 + subTileSize - 1) / subTileSize)
}

// subSpan returns t's i-th sub-tile in row-major order.
func subSpan(t tileSpan, i int) tileSpan {
	cols := (t.x1 - t.x0 + subTileSize - 1) / subTileSize
	x0 := t.x0 + i%cols*subTileSize
	y0 := t.y0 + i/cols*subTileSize
	return tileSpan{x0, y0, min(x0+subTileSize, t.x1), min(y0+subTileSize, t.y1)}
}

// tileJob is one tile of a render. The worker that claims it runs its
// probe: the tile's coarse frontier and, for εKDV, the adaptive choice
// between warm and root mode. The probe either finishes the tile or leaves
// units, its sub-tiles, to whichever workers take them: a unit reads only
// the coarse frontier, which nothing writes after the probe, and its own
// worker's scratch, so its pixels come out the same on any worker.
type tileJob struct {
	span  tileSpan
	f     *engine.FlatFrontier // coarse frontier; nil on paths without one
	root  bool                 // εKDV root mode: units refine pixels from the root
	units int                  // sub-tiles the probe left; 0 when it finished the tile
	next  int                  // next unit to hand out (guarded by tileSched.mu)
	left  int                  // units not yet finished (guarded by tileSched.mu)
}

// tileSched hands out a render's work. A worker takes a unit of a probed
// tile if one is open, else the next tile to probe; with neither it waits
// while some tile is still being probed, since that probe may publish
// units. A tile is claimed only when no unit is open, so at most one coarse
// frontier per worker is being probed and at most one more per worker has
// units running: no more than 2×workers are live. The unit that finishes
// last returns its tile's frontier to the pool.
type tileSched struct {
	mu        sync.Mutex
	cond      sync.Cond
	jobs      []tileJob
	claimed   int        // tiles handed out to probe
	probing   int        // claimed tiles whose probe has not published
	open      []*tileJob // probed tiles with units not yet handed out
	frontiers *sync.Pool // where finished tiles' frontiers go
}

// newTileSched decomposes the raster into row-major size×size tiles (edge
// tiles clipped).
func newTileSched(res grid.Resolution, size int, frontiers *sync.Pool) *tileSched {
	nx := (res.W + size - 1) / size
	ny := (res.H + size - 1) / size
	sc := &tileSched{jobs: make([]tileJob, 0, nx*ny), frontiers: frontiers}
	sc.cond.L = &sc.mu
	for ty := 0; ty < ny; ty++ {
		y0 := ty * size
		y1 := min(y0+size, res.H)
		for tx := 0; tx < nx; tx++ {
			x0 := tx * size
			sc.jobs = append(sc.jobs, tileJob{span: tileSpan{x0, y0, min(x0+size, res.W), y1}})
		}
	}
	return sc
}

// next returns the caller's next piece of work: unit u ≥ 0 of a probed
// tile, or a tile to probe (u < 0). ok is false once no work is left or ctx
// is done.
func (sc *tileSched) next(ctx context.Context) (j *tileJob, u int, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for ctx.Err() == nil {
		switch {
		case len(sc.open) > 0:
			j = sc.open[0]
			u = j.next
			if j.next++; j.next == j.units {
				sc.open = slices.Delete(sc.open, 0, 1)
			}
			return j, u, true
		case sc.claimed < len(sc.jobs):
			j = &sc.jobs[sc.claimed]
			sc.claimed++
			sc.probing++
			return j, -1, true
		case sc.probing == 0:
			return nil, 0, false
		}
		sc.cond.Wait()
	}
	return nil, 0, false
}

// publish ends j's probe and opens its units to every worker. With keep,
// unit 0 stays with the caller, which runs it and then calls done.
func (sc *tileSched) publish(j *tileJob, keep bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.probing--
	j.left = j.units
	if keep {
		j.next = 1
	}
	if j.next < j.units {
		sc.open = append(sc.open, j)
	}
	sc.finish(j)
	sc.cond.Broadcast()
}

// done records that one of j's units has finished.
func (sc *tileSched) done(j *tileJob) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	j.left--
	sc.finish(j)
}

// finish returns j's frontier to the pool once no unit of j is left to run.
func (sc *tileSched) finish(j *tileJob) {
	if j.left == 0 && j.f != nil {
		sc.frontiers.Put(j.f)
		j.f = nil
	}
}

// wake rouses every waiting worker, so each sees ctx's cancellation.
func (sc *tileSched) wake() {
	sc.mu.Lock()
	sc.cond.Broadcast()
	sc.mu.Unlock()
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
	// Workers is the number of goroutines that ran the render:
	// min(WithWorkers, units), where a unit is a 4×4 sub-tile on
	// tile-shared passes (tile size above 4) and a tile otherwise, or 1 for
	// a progressive render.
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
	// Elapsed is the render's wall-clock time. SharedElapsed is the time
	// spent building tile/sub-tile frontiers, summed across workers — CPU
	// time of the shared stage, not wall time; SharedElapsed/Workers
	// estimates its wall share (promotion work is counted in the per-pixel
	// remainder).
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

// Add sums o's work counters into s: every field except Elapsed, which is
// wall time and does not add across concurrent workers or shards.
func (s *RenderStats) Add(o RenderStats) {
	s.Pixels += o.Pixels
	s.Tiles += o.Tiles
	s.TilesDecided += o.TilesDecided
	s.Workers += o.Workers
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

// renderPass describes one raster evaluation: εKDV (density values) or τKDV
// (0/1 hot values), with an optional per-pixel work-map sink.
type renderPass struct {
	eps   float64
	tau   float64
	isTau bool
	work  *WorkMap
}

// renderValues evaluates every pixel of g into a pooled buffer with the
// tile-shared traversal: one shared kd-tree refinement per tile (its coarse
// frontier), then per-pixel refinement warm-started from the residual
// frontier. Workers share the raster through a tileSched, whose unit of
// work is a tile until it is probed and its 4×4 sub-tiles after, so a
// raster of one tile keeps every worker busy and a hotspot-heavy tile does
// not stall the render. Tile and sub-tile results do not depend on which
// worker computes them, so output is bit-identical for every worker count.
// Workers poll ctx between pieces of work and between pixel rows inside
// them, and a worker waiting on another's probe wakes on cancellation; the
// first context error is returned after all workers have exited, with the
// stats of the work done until then.
func (k *KDV) renderValues(ctx context.Context, g *grid.Grid, pass renderPass) ([]float64, RenderStats, error) {
	vals := make([]float64, g.Res.Pixels())
	size := k.tileSize()
	sched := size
	if sched < 2 {
		// Sharing disabled: tiles remain the scheduling unit, just bigger
		// to keep scheduler contention negligible.
		sched = 2 * defaultTileSize
	}
	sc := newTileSched(g.Res, sched, &k.frontiers)
	units := len(sc.jobs)
	if k.proto != nil && size > subTileSize {
		// Two-level tiles: their sub-tiles are the units workers share.
		units = 0
		for i := range sc.jobs {
			units += subTiles(sc.jobs[i].span)
		}
	}
	workers := min(k.cfg.workers, units)
	st := RenderStats{Workers: workers}
	stop := context.AfterFunc(ctx, sc.wake)
	defer stop()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		statsMu  sync.Mutex
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := k.newTileWorker(ctx, g, size, pass)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			defer func() {
				w.release()
				statsMu.Lock()
				st.Add(w.local)
				statsMu.Unlock()
			}()
			for {
				j, u, ok := sc.next(ctx)
				if !ok {
					return
				}
				if u < 0 {
					keep := w.probe(j, vals)
					sc.publish(j, keep)
					if !keep {
						continue
					}
					u = 0
				}
				w.unit(j, u, vals)
				sc.done(j)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	if firstErr != nil {
		return nil, st, firstErr
	}
	st.Pixels = g.Res.Pixels()
	return vals, st, nil
}

// tileWorker is one render goroutine: its pooled scratch (nil for the exact
// and Z-order scans, which use no engine) and its share of the pass's work
// counters. Its pixel loops poll ctx between rows and return early once it
// is cancelled; partial output is fine because the caller discards the
// raster on any context error.
type tileWorker struct {
	k     *KDV
	ctx   context.Context
	g     *grid.Grid
	size  int
	pass  renderPass
	s     *renderScratch
	local RenderStats
}

func (k *KDV) newTileWorker(ctx context.Context, g *grid.Grid, size int, pass renderPass) (*tileWorker, error) {
	w := &tileWorker{k: k, ctx: ctx, g: g, size: size, pass: pass}
	if k.proto == nil {
		return w, nil
	}
	s, err := k.acquireRenderScratch()
	if err != nil {
		return nil, err
	}
	w.s = s
	return w, nil
}

// release returns the worker's pooled scratch.
func (w *tileWorker) release() {
	if w.s != nil {
		w.k.releaseRenderScratch(w.s)
	}
}

// shared accounts one shared-stage step that started at t0.
func (w *tileWorker) shared(t0 time.Time, st engine.Stats) {
	w.local.SharedElapsed += time.Since(t0)
	w.local.addShared(st)
}

// probe runs j's tile-level work. On the paths without a second level it
// renders the whole tile; otherwise it builds the coarse frontier into j.f
// and leaves j.units sub-tiles to share. keep reports that unit 0
// must run on this worker: warm mode's probe built unit 0's sub-frontier
// into this worker's scratch and already counted a pixel's hits on it.
func (w *tileWorker) probe(j *tileJob, vals []float64) (keep bool) {
	t, s, pass, g := j.span, w.s, w.pass, w.g
	switch {
	case s == nil:
		w.scanPixels(t, vals)
		return false
	case w.size < 2:
		// Tile sharing disabled: the paper's per-pixel refinement from the
		// root, kept as the WithTileSize(1) baseline.
		w.rootPixels(t, vals)
		return false
	}
	j.f = w.k.acquireFrontier()
	rect := s.tileRect(g, t)
	w.local.Tiles++
	if pass.isTau {
		t0 := time.Now()
		w.shared(t0, s.r.BuildFrontierTau(rect, pass.tau, j.f))
		if decided, hot := j.f.State(); decided {
			w.local.TilesDecided++
			w.fill(t, hot, vals)
			return false
		}
		if w.size <= subTileSize {
			w.runPixels(t, j.f, vals)
			return false
		}
		// Second level: each sub-tile tightens the tile frontier against
		// its much smaller rectangle (rect-to-rect bounds shrink with the
		// query rect), amortized over the sub-tile's pixels.
		j.units = subTiles(t)
		return false
	}
	if w.size <= subTileSize {
		t0 := time.Now()
		w.shared(t0, s.r.BuildFrontierEps(rect, pass.eps, j.f))
		w.runPixels(t, j.f, vals)
		return false
	}
	t0 := time.Now()
	outSt := s.r.BuildFrontierEpsCoarse(rect, pass.eps, j.f)
	w.shared(t0, outSt)
	// Adaptive probe: build the first sub-frontier and evaluate the tile's
	// first pixel both warm-started and from the root. Dense data under
	// coarse pixels can leave frontiers that cost more to seed from than
	// root refinement saves; the probe measures the actual per-pixel costs
	// and the projected shared overhead, and picks the cheaper strategy for
	// the whole tile. The decision depends only on deterministic per-tile
	// state, so renders stay bit-identical across worker counts.
	srect := s.tileRect(g, subSpan(t, 0))
	t0 = time.Now()
	subSt := s.r.BuildFrontierEpsFrom(j.f, srect, pass.eps, s.sub)
	w.shared(t0, subSt)
	g.Query(t.x0, t.y0, s.q)
	_, warmSt := s.r.EvalEpsFrom(s.sub, s.q, pass.eps)
	_, rootSt := s.r.EvalEps(s.q, pass.eps)
	w.local.addShared(rootSt) // probe overhead, not pixel work
	px := (t.x1 - t.x0) * (t.y1 - t.y0)
	j.units = subTiles(t)
	overhead := (outSt.NodesEvaluated + j.units*subSt.NodesEvaluated) / px
	j.root = warmSt.NodesEvaluated+overhead > rootSt.NodesEvaluated
	return !j.root
}

// unit runs sub-tile u of the probed tile j: in root mode it refines the
// pixels from the root; otherwise it tightens the coarse frontier against
// the sub-tile into s.sub and warm-starts the pixels from that, unless a
// τKDV sub-frontier decides the whole sub-tile.
func (w *tileWorker) unit(j *tileJob, u int, vals []float64) {
	sub, s, pass := subSpan(j.span, u), w.s, w.pass
	switch {
	case j.root:
		w.rootPixels(sub, vals)
		return
	case pass.isTau:
		t0 := time.Now()
		w.shared(t0, s.r.BuildFrontierTauFrom(j.f, s.tileRect(w.g, sub), pass.tau, s.sub))
		if decided, hot := s.sub.State(); decided {
			w.local.TilesDecided++
			w.fill(sub, hot, vals)
			return
		}
	case u > 0:
		// Unit 0's sub-frontier is the one the probe built, still in s.sub.
		t0 := time.Now()
		w.shared(t0, s.r.BuildFrontierEpsFrom(j.f, s.tileRect(w.g, sub), pass.eps, s.sub))
	}
	w.runPixels(sub, s.sub, vals)
}

// pixel stores pixel i's value and accounts its work.
func (w *tileWorker) pixel(i int, v float64, st engine.Stats, vals []float64) {
	vals[i] = v
	w.local.addPixel(st)
	if w.pass.work != nil {
		w.pass.work.record(i, st)
	}
}

// scanPixels evaluates t's pixels by the exact scan, or MethodZOrder's
// scan of its sample.
func (w *tileWorker) scanPixels(t tileSpan, vals []float64) {
	k, g, pass := w.k, w.g, w.pass
	kern := k.cfg.kern.internal()
	pts, ws, wt := k.pts, k.weights, k.bw.Weight
	if k.cfg.method == MethodZOrder {
		pts, ws, wt = k.sample, nil, k.sampleWeight
	}
	q := make([]float64, 2)
	for y := t.y0; y < t.y1; y++ {
		if w.ctx.Err() != nil {
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

// rootPixels refines each of t's pixels from the root: the paper's
// per-pixel refinement, and the fallback when a tile's shared frontier is
// measurably not worth seeding from.
func (w *tileWorker) rootPixels(t tileSpan, vals []float64) {
	s, g, pass := w.s, w.g, w.pass
	for y := t.y0; y < t.y1; y++ {
		if w.ctx.Err() != nil {
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
			w.pixel(g.Index(x, y), v, st, vals)
		}
	}
}

// runPixels evaluates t's pixels warm-started from frontier f. Serpentine
// pixel order keeps successive queries adjacent, which is what makes the
// frontier-promotion coherence signal meaningful.
func (w *tileWorker) runPixels(t tileSpan, f *engine.FlatFrontier, vals []float64) {
	s, g, pass := w.s, w.g, w.pass
	for y := t.y0; y < t.y1; y++ {
		if w.ctx.Err() != nil {
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
			w.pixel(g.Index(x, y), v, st, vals)
			w.local.addPromote(s.r.Promote(f))
			if x == x1 {
				break
			}
		}
	}
}

// fill sets every pixel of t to the hot bit of a decided τKDV frontier.
func (w *tileWorker) fill(t tileSpan, hot bool, vals []float64) {
	var v float64
	if hot {
		v = 1
	}
	for y := t.y0; y < t.y1; y++ {
		for x := t.x0; x < t.x1; x++ {
			vals[w.g.Index(x, y)] = v
		}
	}
}

// progWarm warm-starts progressive εKDV evaluation with tile frontiers: the
// first pixel landing in a tile refines from the root (coarse levels touch
// each tile at most once, where building a frontier would cost more than it
// saves), the second touch builds the tile's shared frontier, and every
// later pixel in that tile seeds from it. BuildOrder groups each level by
// tile for it, so deep levels visit each tile's pixels in bursts.
type progWarm struct {
	r                *engine.FlatTileEngine
	g                *grid.Grid
	size, tilesX     int
	eps              float64
	touched          []bool
	fronts           []*engine.FlatFrontier
	rectMin, rectMax [2]float64
	// stats accumulates the per-pixel and shared work counters. Progressive
	// evaluation is single-threaded, so plain field updates suffice.
	stats *RenderStats
}

func (k *KDV) newProgWarm(g *grid.Grid, r *engine.FlatTileEngine, eps float64, st *RenderStats) *progWarm {
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
		fronts:  make([]*engine.FlatFrontier, tilesX*tilesY),
		stats:   st,
	}
}

func (w *progWarm) eval(px, py int, q []float64) float64 {
	ti := (py/w.size)*w.tilesX + px/w.size
	if f := w.fronts[ti]; f != nil {
		v, st := w.r.EvalEpsFrom(f, q, w.eps)
		w.stats.addPixel(st)
		return v
	}
	if !w.touched[ti] {
		w.touched[ti] = true
		v, st := w.r.EvalEps(q, w.eps)
		w.stats.addPixel(st)
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
	f := new(engine.FlatFrontier)
	buildSt := w.r.BuildFrontierEps(rect, w.eps, f)
	w.fronts[ti] = f
	v, st := w.r.EvalEpsFrom(f, q, w.eps)
	w.stats.Tiles++
	w.stats.addShared(buildSt)
	w.stats.addPixel(st)
	return v
}

// Variant selects the raster a Request renders.
type Variant int

const (
	// EpsKDV renders εKDV density values: each within relative error Eps of
	// the pixel's exact density.
	EpsKDV Variant = iota
	// TauKDV renders the τKDV hotspot mask: whether each pixel's density is
	// at least Tau.
	TauKDV
	// ProgressiveKDV runs the progressive visualization framework (paper
	// Section 6): pixels are εKDV-evaluated in quad-tree order and each
	// value fills its sub-region until refined, so a spatially complete
	// coarse map exists almost immediately. The render stops when Budget
	// elapses or MaxPixels pixels were evaluated.
	ProgressiveKDV
)

// String returns the variant's name.
func (v Variant) String() string {
	switch v {
	case EpsKDV:
		return "εKDV"
	case TauKDV:
		return "τKDV"
	case ProgressiveKDV:
		return "progressive"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Request is one render: a variant and its parameters. A field the variant
// does not use must keep its zero value; Validate rejects the request
// otherwise, so no parameter is silently dropped.
type Request struct {
	Variant Variant
	// Res is the raster size. With Sub set it is the size of the conceptual
	// full raster Sub is cut from.
	Res Resolution
	// Window is the data-space region the raster covers; the zero Window is
	// DefaultWindow.
	Window Window
	// Sub, when non-zero, renders only the pixel sub-rectangle Sub of the
	// full Res raster (EpsKDV only). Every query point is computed with the
	// full raster's window mapping, so the result is bit-identical
	// (Float64bits) to the corresponding crop of the full render whenever
	// Sub's origin is aligned to the engine's pixel-tile lattice (X0 and Y0
	// multiples of the effective tile size, see WithTileSize): the contract
	// the tile pyramid and its stitched-mosaic conformance pass are built
	// on. Unaligned origins render correctly (the ε guarantee holds) but may
	// differ from the crop in the low bits, because tile-shared frontiers
	// would straddle different pixel blocks. The raster cap applies to Sub,
	// not to Res.
	Sub PixelRect
	// Eps is the relative error of EpsKDV and ProgressiveKDV: a number ≥ 0.
	// Each rendered value R is within Eps of the pixel's exact density F,
	// relative to F or, below the normal range, to 2⁻¹⁰²²: |R − F| ≤
	// Eps·max(F, 2⁻¹⁰²²), since a subnormal F has too few bits to be held
	// to relative error Eps.
	Eps float64
	// Tau is TauKDV's threshold. NaN is rejected; ±Inf is valid, and the
	// root bounds decide every pixel.
	Tau float64
	// WorkMap records the per-pixel work rasters into Result.Work (EpsKDV
	// and TauKDV over a full raster). It allocates three more rasters of
	// the output's size, so interactive serving should keep it behind an
	// explicit gate.
	WorkMap bool
	// Budget stops a ProgressiveKDV render once it has run this long; ≤ 0
	// means no time limit.
	Budget time.Duration
	// MaxPixels stops a ProgressiveKDV render after this many evaluated
	// pixels; ≤ 0 means all.
	MaxPixels int
	// Emit, when non-nil, receives a ProgressiveKDV render's spatially
	// complete partial map after every completed quad-tree level and once
	// at the end; returning false stops the render — the "user terminates
	// the process at any time" interaction of paper Section 6.
	Emit func(Snapshot) bool
}

// Validate reports whether Render can run r, before anything is allocated:
// the variant must be known; Eps must be a number ≥ 0 (EpsKDV,
// ProgressiveKDV) or Tau not NaN (TauKDV); the output raster, Sub or else
// Res, must have positive sides and at most 2²⁸ pixels, and Sub must lie
// inside Res; a non-zero Window must pass Window.Validate; and no field the
// variant does not use may be set.
func (r Request) Validate() error {
	hasSub := r.Sub != (PixelRect{})
	switch {
	case r.Variant < EpsKDV || r.Variant > ProgressiveKDV:
		return fmt.Errorf("quad: unknown render variant %d", int(r.Variant))
	case r.Variant == TauKDV && r.Eps != 0:
		return fmt.Errorf("quad: τKDV request sets Eps; it takes Tau")
	case r.Variant != TauKDV && r.Tau != 0:
		return fmt.Errorf("quad: %s request sets Tau; it takes Eps", r.Variant)
	case r.Variant != ProgressiveKDV && (r.Budget != 0 || r.MaxPixels != 0 || r.Emit != nil):
		return fmt.Errorf("quad: %s request sets Budget, MaxPixels or Emit; only progressive requests take them", r.Variant)
	case r.Variant == ProgressiveKDV && r.WorkMap:
		return fmt.Errorf("quad: progressive request sets WorkMap; it records none")
	case hasSub && (r.Variant != EpsKDV || r.WorkMap):
		return fmt.Errorf("quad: %s request sets Sub; only εKDV requests without a work map take it", r.Variant)
	}
	param := checkEps(r.Eps)
	if r.Variant == TauKDV {
		param = checkTau(r.Tau)
	}
	if param != nil {
		return param
	}
	if hasSub {
		if r.Res.W < 1 || r.Res.H < 1 {
			return fmt.Errorf("quad: non-positive full resolution %dx%d", r.Res.W, r.Res.H)
		}
		if err := r.Sub.validate(r.Res); err != nil {
			return err
		}
		// Only the sub-rectangle is allocated: the full raster of a
		// deep-zoom XYZ tile is far above maxRasterPixels by design.
		if err := checkPixels(r.Sub.W(), r.Sub.H()); err != nil {
			return err
		}
	} else if err := checkPixels(r.Res.W, r.Res.H); err != nil {
		return err
	}
	if !r.Window.IsZero() {
		return r.Window.Validate()
	}
	return nil
}

// Result is what Render produced.
type Result struct {
	// Density is the EpsKDV or ProgressiveKDV raster.
	Density *DensityMap
	// Hot is the TauKDV mask.
	Hot *HotspotMap
	// Work holds the per-pixel work rasters when Request.WorkMap was set.
	Work *WorkMap
	// Stats is the render's work, also when it stopped with an error. For
	// ProgressiveKDV, Pixels is the evaluated count and every count is zero
	// for the scan-based methods, which perform no bound refinement.
	Stats RenderStats
	// Evaluated is the number of pixels computed exactly: every pixel of an
	// EpsKDV or TauKDV raster; of a progressive one, the rest carry coarse
	// fill values from enclosing regions.
	Evaluated int
	// Complete reports whether every pixel was evaluated.
	Complete bool
}

// Render renders req. A request Validate rejects returns Validate's error
// with a zero Result. Cancelling ctx stops the workers within one row of
// pixel work and returns ctx.Err() with no raster; a ProgressiveKDV render
// whose Budget lapses is not cancelled and returns its partial map with a
// nil error, also when ctx ended after the budget lapsed. Every render
// records post-hoc spans on ctx's trace: render.eps, render.eps.sub or
// render.tau with its stage children, or one progressive.level.N span per
// completed level of a streamed progressive render.
func (k *KDV) Render(ctx context.Context, req Request) (Result, error) {
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	g, err := k.newGridIn(req.Res, req.Window)
	if err != nil {
		return Result{}, err
	}
	if req.Variant == ProgressiveKDV {
		return k.renderProgressive(ctx, g, req)
	}
	span, res := "render.eps", req.Res
	winMin := [2]float64{g.Window.Min[0], g.Window.Min[1]}
	winMax := [2]float64{g.Window.Max[0], g.Window.Max[1]}
	switch {
	case req.Variant == TauKDV:
		span = "render.tau"
	case req.Sub != (PixelRect{}):
		span, res = "render.eps.sub", Resolution{W: req.Sub.W(), H: req.Sub.H()}
		if g, err = g.Sub(req.Sub.X0, req.Sub.Y0, res.W, res.H); err != nil {
			return Result{}, err
		}
		// A sub-raster's corners are its pixel edges: the tile's bbox.
		winMin[0], winMin[1] = g.PixelEdge(0, 0)
		winMax[0], winMax[1] = g.PixelEdge(res.W, res.H)
	}
	pass := renderPass{eps: req.Eps, tau: req.Tau, isTau: req.Variant == TauKDV}
	if req.WorkMap {
		pass.work = newWorkMap(res, winMin, winMax)
	}
	start := time.Now()
	vals, st, err := k.renderValues(ctx, g, pass)
	st.Elapsed = time.Since(start)
	emitRenderSpans(ctx, span, start, st, err)
	if err != nil {
		return Result{Stats: st}, err
	}
	out := Result{Work: pass.work, Stats: st, Evaluated: len(vals), Complete: true}
	if !pass.isTau {
		out.Density = &DensityMap{Res: res, Values: vals, WindowMin: winMin, WindowMax: winMax}
		return out, nil
	}
	hot := make([]bool, len(vals))
	for i, v := range vals {
		hot[i] = v != 0
	}
	out.Hot = &HotspotMap{Res: res, Tau: req.Tau, Hot: hot, WindowMin: winMin, WindowMax: winMax}
	return out, nil
}

// RenderEps computes the full εKDV color map at the given resolution over
// the dataset's default window.
func (k *KDV) RenderEps(res Resolution, eps float64) (*DensityMap, error) {
	r, err := k.Render(context.Background(), Request{Res: res, Eps: eps})
	return r.Density, err
}

// RenderTau computes the full τKDV two-color map at the given resolution
// over the dataset's default window.
func (k *KDV) RenderTau(res Resolution, tau float64) (*HotspotMap, error) {
	r, err := k.Render(context.Background(), Request{Variant: TauKDV, Res: res, Tau: tau})
	return r.Hot, err
}

// RenderEpsStatsInCtx renders an εKDV request over win.
//
// Deprecated: use Render.
func (k *KDV) RenderEpsStatsInCtx(ctx context.Context, res Resolution, eps float64, win Window) (*DensityMap, RenderStats, error) {
	r, err := k.Render(ctx, Request{Res: res, Window: win, Eps: eps})
	return r.Density, r.Stats, err
}

// RenderEpsSubStatsInCtx renders the sub pixel rectangle of an εKDV request
// over win.
//
// Deprecated: use Render with Request.Sub.
func (k *KDV) RenderEpsSubStatsInCtx(ctx context.Context, full Resolution, eps float64, win Window, sub PixelRect) (*DensityMap, RenderStats, error) {
	r, err := k.Render(ctx, Request{Res: full, Window: win, Sub: sub, Eps: eps})
	return r.Density, r.Stats, err
}

// RenderTauStatsInCtx renders a τKDV request over win.
//
// Deprecated: use Render.
func (k *KDV) RenderTauStatsInCtx(ctx context.Context, res Resolution, tau float64, win Window) (*HotspotMap, RenderStats, error) {
	r, err := k.Render(ctx, Request{Variant: TauKDV, Res: res, Window: win, Tau: tau})
	return r.Hot, r.Stats, err
}

// ThresholdStatsCtx estimates the mean μ and standard deviation σ of the
// density over a stride-sampled pixel grid of the default window, the
// quantities the paper's τ ladder (μ ± kσ) is built from. Values are εKDV
// estimates with the given ε (use a small ε like 0.01). res and eps are
// checked as an εKDV Request's are, and ctx is polled before every sample:
// its error is returned.
func (k *KDV) ThresholdStatsCtx(ctx context.Context, res Resolution, stride int, eps float64) (mu, sigma float64, err error) {
	if err := (Request{Res: res, Eps: eps}).Validate(); err != nil {
		return 0, 0, err
	}
	if stride < 1 {
		stride = 1
	}
	g, err := k.newGridIn(res, Window{})
	if err != nil {
		return 0, 0, err
	}
	var samples []float64
	q := make([]float64, 2)
	for y := 0; y < res.H; y += stride {
		for x := 0; x < res.W; x += stride {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
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

// Snapshot is a partial color-map state passed to Request.Emit: spatially
// complete at every level, refining monotonically across snapshots.
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

// renderProgressive runs a ProgressiveKDV request over g: pixels are
// εKDV-evaluated in quad-tree order under the budget, each value filling
// its region until refined. req.Emit, when non-nil, receives a snapshot
// after every completed level, and each level is recorded as a span on the
// context's trace. Cancellation returns ctx.Err() and no map.
func (k *KDV) renderProgressive(ctx context.Context, g *grid.Grid, req Request) (Result, error) {
	var eng *engine.FlatTileEngine
	if k.proto != nil {
		var err error
		if eng, err = k.acquireEngine(); err != nil {
			return Result{}, err
		}
		defer k.releaseEngine(eng)
	}
	st := RenderStats{Workers: 1}
	warm := k.newProgWarm(g, eng, req.Eps, &st)
	tile := 0
	if warm != nil {
		tile = warm.size
	}
	order, err := progressive.BuildOrder(g.Res, tile)
	if err != nil {
		return Result{}, err
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
			v, pst := eng.EvalEps(q, req.Eps)
			st.addPixel(pst)
			return v
		}
	}
	dm := &DensityMap{
		Res:       req.Res,
		WindowMin: [2]float64{g.Window.Min[0], g.Window.Min[1]},
		WindowMax: [2]float64{g.Window.Max[0], g.Window.Max[1]},
	}
	var levelEmit func(progressive.Snapshot) bool
	if req.Emit != nil {
		// Per-level spans: each completed quad-tree level becomes a post-hoc
		// span covering [previous snapshot, this snapshot] with the pixels
		// and node evaluations the level consumed.
		tr := trace.FromContext(ctx)
		parentSpan := trace.SpanFromContext(ctx)
		start := time.Now()
		var prevElapsed time.Duration
		prevEvaluated, prevNodes := 0, 0
		levelEmit = func(s progressive.Snapshot) bool {
			dm.Values = s.Values
			if tr != nil {
				sp := tr.Add(fmt.Sprintf("progressive.level.%d", s.Level), parentSpan,
					start.Add(prevElapsed), start.Add(s.Elapsed),
					trace.Int("level", s.Level),
					trace.Int("pixels", s.Evaluated-prevEvaluated),
					trace.Int("node_evals", st.NodesEvaluated-prevNodes))
				if s.Final {
					sp.SetAttrs(trace.Str("final", "true"))
				}
				prevElapsed, prevEvaluated, prevNodes = s.Elapsed, s.Evaluated, st.NodesEvaluated
			}
			return req.Emit(Snapshot{
				Map:       dm,
				Evaluated: s.Evaluated,
				Level:     s.Level,
				Elapsed:   s.Elapsed,
				Final:     s.Final,
			})
		}
	}
	r, err := progressive.Run(ctx, order, eval, req.Budget, req.MaxPixels, levelEmit)
	st.Pixels, st.Elapsed = r.Evaluated, r.Elapsed
	if err != nil {
		return Result{Stats: st}, err
	}
	dm.Values = r.Values.Data
	return Result{Density: dm, Stats: st, Evaluated: r.Evaluated, Complete: r.Complete}, nil
}

// geomRect converts a public Window to the internal rectangle type.
func geomRect(w Window) geom.Rect {
	return geom.Rect{Min: []float64{w.MinX, w.MinY}, Max: []float64{w.MaxX, w.MaxY}}
}
