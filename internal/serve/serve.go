// Package serve exposes the KDV library over HTTP — the shape in which KDV
// ships inside the analytics platforms the paper names (ArcGIS, QGIS,
// Scikit-learn): a renderer that a front end can query for color-map tiles
// at interactive latencies, with the progressive framework handling strict
// time budgets.
//
// Endpoints:
//
//	GET /info                            JSON: datasets, kernels, methods
//	GET /healthz                         JSON liveness probe
//	GET /render?dataset=crime&eps=0.01   εKDV heat map PNG
//	GET /hotspots?dataset=crime&tau=mu+0.2   τKDV two-color PNG
//	GET /progressive?dataset=crime&budget=500ms   budgeted heat map PNG
//
// Common query parameters: dataset (name of a synthetic analogue), n
// (cardinality), res (WxH), kernel, method, seed, log (0/1 color scale),
// bbox (pan/zoom window). A cluster worker serves ShardHandler instead: the
// internal shard-render route, which takes the same parameters plus
// shard=i/n.
//
// The serving layer is hardened for interactive traffic: render endpoints
// pass through a semaphore admission controller (429 + Retry-After when
// both the render slots and the wait queue are full), run under a
// per-request deadline, and observe client disconnects — a cancelled
// request stops its render within one row of pixel work. Built KDV
// instances, tile pyramids and tiles live in bounded LRU caches
// (internal/lru) whose concurrent misses share one load, so a stampede on
// a cold key performs one build and hits never wait behind cold builds.
// When /render misses its deadline it degrades gracefully: the response
// is the progressive partial raster, flagged X-KDV-Complete: false,
// instead of an error. Errors are structured JSON, and a panic inside a
// handler becomes a 500 rather than a dead process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/audit"
	"github.com/quadkdv/quad/internal/cluster"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/lru"
	"github.com/quadkdv/quad/internal/render"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/tiles"
	"github.com/quadkdv/quad/internal/trace"
)

// maxPixels caps requested rasters to keep a single request from consuming
// the server (2560×1920, the paper's largest screen).
const maxPixels = 2560 * 1920

// maxN caps requested dataset cardinalities.
const maxN = 10_000_000

// Config tunes the serving layer. The zero value of any field selects its
// default.
type Config struct {
	// DefaultN is the dataset size used when ?n= is absent (default 100000).
	DefaultN int
	// RequestTimeout is the per-request render deadline. 0 disables
	// deadlines (renders still stop on client disconnect).
	RequestTimeout time.Duration
	// MaxConcurrent bounds simultaneously running renders
	// (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a render slot beyond
	// MaxConcurrent; anything past slots+queue is answered 429.
	// 0 selects the default (2×MaxConcurrent); negative disables
	// queueing entirely.
	MaxQueue int
	// CacheSize bounds the KDV build cache and the tile pyramid registry,
	// in entries each (default 32).
	CacheSize int
	// DegradeBudget is the progressive-render budget granted to /render's
	// graceful-degradation fallback after its deadline fires
	// (default 250ms).
	DegradeBudget time.Duration
	// WarmDataset is the dataset Warmup builds to flip /readyz green
	// (default "crime").
	WarmDataset string
	// SlowQuery enables the structured slow-query log: any request running
	// at least this long is appended as one JSON line to SlowQueryLog.
	// 0 disables the log.
	SlowQuery time.Duration
	// SlowQueryLog receives the slow-query lines (default os.Stderr).
	// Writes are serialized by the server.
	SlowQueryLog io.Writer
	// TraceLog, when set, enables request tracing for every request and
	// receives the finished spans as JSON lines (one span per line; writes
	// are serialized by the server). Requests arriving with a valid W3C
	// traceparent header are traced regardless, continuing the caller's
	// trace — but their spans are only exported when TraceLog is set.
	TraceLog io.Writer
	// EnableWorkMap exposes GET /debug/workmap, the diagnostic endpoint
	// rendering per-pixel work rasters (refinement depth, node evaluations,
	// settle bound gap). Off by default: work-map renders allocate three
	// full-resolution float64 rasters and bypass the KDV cache's PNG path,
	// so the endpoint is for debugging, not production traffic.
	EnableWorkMap bool
	// Registry, when set, receives the server's metric families instead of
	// a private registry — so a coordinator's cluster metrics and the
	// serving metrics share one /metrics scrape.
	Registry *telemetry.Registry
	// TilesDir, when set, backs the XYZ tile endpoint with the persistent
	// append-only tile store rooted there, so tiles survive restarts.
	// Empty keeps the tile endpoint memory-only.
	TilesDir string
	// TileSize is the tile edge in pixels for /tiles responses — a power of
	// two in [64, 1024] (default 256). It participates in the tileset key,
	// so changing it addresses a fresh pyramid.
	TileSize int
	// TileMemoryBytes bounds the in-memory tile cache (default 64 MiB).
	TileMemoryBytes int64
	// WarmZooms lists the zoom levels of the default pyramid that Warmup
	// precomputes (e.g. [0, 1, 2] renders 1+4+16 tiles). Empty skips tile
	// warmup.
	WarmZooms []int
	// AuditFraction is the fraction of completed renders re-checked by the
	// shadow accuracy auditor (0 selects the default 0.01; negative
	// disables auditing entirely). For each sampled render a few random
	// pixels are recomputed with the exact Kahan oracle on a background
	// pool and checked against the advertised ε/τ guarantee.
	AuditFraction float64
	// AuditPixels is the number of random pixels recomputed per audited
	// render (default 8).
	AuditPixels int
	// AuditBudget caps the audit queue; over-budget audits are dropped and
	// counted, never blocking the serving path (default 64).
	AuditBudget int
	// AuditHardFail latches the auditor into a failed state on the first
	// violation — the mode test harnesses assert on (see /debug/ops).
	AuditHardFail bool
	// AuditSeed fixes the audit sampling stream (0 picks a fixed default).
	AuditSeed int64
	// Logger receives the server's structured logs (default
	// slog.Default()).
	Logger *slog.Logger
	// Cluster, when set, turns this server into a fan-out coordinator:
	// /render requests with a shardable method (anything but zorder) are
	// partitioned by data shard across the coordinator's workers and the
	// per-shard rasters merged additively. Degraded merges (dead workers)
	// are served with X-KDV-Complete: false and X-KDV-Shards: k/n instead
	// of failing. Other endpoints keep rendering locally.
	Cluster *cluster.Coordinator
}

func (c Config) withDefaults() Config {
	if c.DefaultN <= 0 {
		c.DefaultN = 100000
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxConcurrent
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 32
	}
	if c.DegradeBudget <= 0 {
		c.DegradeBudget = 250 * time.Millisecond
	}
	if c.WarmDataset == "" {
		c.WarmDataset = "crime"
	}
	if c.TileSize <= 0 {
		c.TileSize = 256
	}
	if c.TileMemoryBytes <= 0 {
		c.TileMemoryBytes = 64 << 20
	}
	if c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	switch {
	case c.AuditFraction == 0:
		c.AuditFraction = 0.01
	case c.AuditFraction < 0:
		c.AuditFraction = 0
	case c.AuditFraction > 1:
		c.AuditFraction = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server renders KDV maps over HTTP. Built KDV instances are cached per
// (dataset, n, seed, kernel, method[, eps]) in a bounded LRU whose
// concurrent misses share one build.
type Server struct {
	// DefaultN is the dataset size used when ?n= is absent. It may be set
	// before the server starts handling requests.
	DefaultN int

	cfg   Config
	cache *lru.Cache[string, *quad.KDV]
	adm   *admission

	// Tile subsystem: the disk store, the memory level and the tileset →
	// pyramid registry, an LRU of CacheSize pyramids, since each pins its
	// KDV beyond the build cache's bound.
	tileStore *tiles.Store // nil when TilesDir is unset
	tileLRU   *tiles.LRU
	tileM     *tiles.Metrics
	pyramids  *lru.Cache[string, *tiles.Pyramid]

	reg       *telemetry.Registry
	m         *metrics
	auditor   *audit.Auditor
	slo       *telemetry.SLO
	log       *slog.Logger
	start     time.Time
	warmState atomic.Int32
	slowMu    sync.Mutex
	traceMu   sync.Mutex

	// rng drives the serving layer's jitter: randomized Retry-After values
	// on 429s and the warmup retry backoff — so a synchronized client herd
	// (or a fleet of replicas behind one probe) doesn't retry in lockstep.
	rngMu sync.Mutex
	rng   *rand.Rand

	// warmNext/warmFails gate the /readyz-triggered warmup retry loop with
	// jittered exponential backoff, so a failing warmup build is not
	// re-launched by every probe of an impatient load balancer.
	warmMu    sync.Mutex
	warmNext  time.Time
	warmFails int
}

// NewServer returns a Server with sane defaults.
func NewServer() *Server { return NewServerWith(Config{}) }

// NewServerWith returns a Server tuned by cfg; zero fields take defaults.
func NewServerWith(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		DefaultN: cfg.DefaultN,
		cfg:      cfg,
		cache:    lru.New[string, *quad.KDV](int64(cfg.CacheSize), nil),
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		reg:      reg,
		m:        newMetrics(reg),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		pyramids: lru.New[string, *tiles.Pyramid](int64(cfg.CacheSize), nil),
	}
	s.cache.Entries, s.cache.Evictions = s.m.cacheEntries, s.m.cacheEvictions
	s.adm.instrument(s.m)
	s.tileM = tiles.NewMetrics(reg)
	s.tileLRU = tiles.NewLRU(cfg.TileMemoryBytes, s.tileM)
	if cfg.TilesDir != "" {
		s.tileStore = tiles.OpenStore(cfg.TilesDir, s.tileM)
	}
	s.log = cfg.Logger
	s.start = time.Now()
	s.auditor = audit.New(audit.Config{
		Fraction: cfg.AuditFraction,
		Pixels:   cfg.AuditPixels,
		Budget:   cfg.AuditBudget,
		HardFail: cfg.AuditHardFail,
		Seed:     cfg.AuditSeed,
		Registry: reg,
		Logger:   s.log,
	})
	telemetry.RegisterRuntimeMetrics(reg)
	s.initSLO(reg)
	return s
}

// Close releases the server's persistent resources: the audit pool (drained,
// so submitted audits still complete) and the tile store's open log files.
// The server stays usable — tile logs reopen on the next access.
func (s *Server) Close() error {
	s.auditor.Close()
	if s.tileStore != nil {
		return s.tileStore.Close()
	}
	return nil
}

// Auditor exposes the shadow accuracy auditor (tests and harnesses assert
// on its hard-fail latch and pending queue).
func (s *Server) Auditor() *audit.Auditor { return s.auditor }

// Registry exposes the server's metric registry so a debug side listener
// (telemetry.StartDebug) can serve the same /metrics the main handler does.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// jitterInt returns a uniform int in [lo, hi] from the server's rng.
func (s *Server) jitterInt(lo, hi int) int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return lo + s.rng.Intn(hi-lo+1)
}

// jitterDur returns a uniform duration in [d/2, d] ("full jitter"), the
// same decorrelation shape the cluster coordinator's retry backoff uses.
func (s *Server) jitterDur(d time.Duration) time.Duration {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
}

// Handler returns the public HTTP handler tree, behind the hardening and
// observability middleware (see middleware), with admission control and
// per-request deadlines around the render endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /info", s.handleInfo)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /render", s.guard(s.handleRender))
	mux.Handle("GET /tiles/{dataset}/{z}/{x}/{y}", s.guard(s.handleTile))
	mux.Handle("GET /hotspots", s.guard(s.handleHotspots))
	mux.Handle("GET /progressive", s.guard(s.handleProgressive))
	mux.Handle("GET /debug/workmap", s.guard(s.handleWorkMap))
	mux.HandleFunc("GET /debug/ops", s.handleOps)
	return s.middleware(mux)
}

// middleware wraps a handler tree in the hardening and observability
// stack. Ordering, outermost first: requestID (stamps X-Request-ID on the
// response before anything can fail), tracing (adopts or mints the W3C
// trace context and stamps X-Trace-ID, so every later layer can read it off
// the ResponseWriter), instrument (status/latency metrics and the
// slow-query log — outside recovery, so a panic is counted as the 500 it
// becomes), recoverJSON, then the mux.
func (s *Server) middleware(mux http.Handler) http.Handler {
	return requestID(s.tracing(s.instrument(s.recoverJSON(mux))))
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := map[string]any{
		"datasets": dataset.Names(),
		"kernels": []string{"gaussian", "triangular", "cosine", "exponential",
			"epanechnikov", "quartic", "uniform"},
		"methods":   []string{"quad", "karl", "minmax", "exact", "zorder"},
		"default_n": s.DefaultN,
		"endpoints": []string{"/render", "/tiles/{dataset}/{z}/{x}/{y}.png", "/hotspots", "/progressive", "/healthz", "/readyz", "/metrics"},
		"tiles": map[string]any{
			"tile_size":  s.cfg.TileSize,
			"persistent": s.tileStore != nil,
			"max_zoom":   tiles.MaxZoom,
		},
		"limits": map[string]any{
			"max_concurrent":  s.cfg.MaxConcurrent,
			"max_queue":       s.cfg.MaxQueue,
			"cache_size":      s.cfg.CacheSize,
			"request_timeout": s.cfg.RequestTimeout.String(),
		},
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(info); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"in_flight": s.adm.inFlight(),
		"cached":    s.cache.Len(),
	})
}

// request carries the parsed common parameters plus the materialized KDV.
type request struct {
	kdv      *quad.KDV
	res      quad.Resolution
	eps      float64
	logScale bool
	window   quad.Window
}

// renderParams are the parsed common query parameters before any KDV is
// built — the form the coordinator path forwards to workers verbatim, so a
// coordinator never pays for a local dataset build it will not use.
type renderParams struct {
	name     string
	n        int
	seed     int64
	kern     quad.Kernel
	method   quad.Method
	res      quad.Resolution
	eps      float64
	logScale bool
	window   quad.Window
	// shard restricts the KDV to one Z-order data shard (shard renders
	// only); the zero value is the whole dataset.
	shard cluster.ShardSpec
}

// parse parses the common parameters and materializes the (cached) KDV —
// the single-process path used by every local render endpoint.
func (s *Server) parse(r *http.Request) (*request, error) {
	p, err := s.parseParams(r)
	if err != nil {
		return nil, err
	}
	return s.materialize(r.Context(), p)
}

// materialize builds (or fetches from cache) the KDV for parsed params.
func (s *Server) materialize(ctx context.Context, p *renderParams) (*request, error) {
	kdv, err := s.kdvFor(ctx, p)
	if err != nil {
		return nil, err
	}
	return &request{
		kdv:      kdv,
		res:      p.res,
		eps:      p.eps,
		logScale: p.logScale,
		window:   p.window,
	}, nil
}

func (s *Server) parseParams(r *http.Request) (*renderParams, error) {
	q := r.URL.Query()
	name := q.Get("dataset")
	if name == "" {
		return nil, fmt.Errorf("dataset parameter is required (one of %v)", dataset.Names())
	}
	return s.parseParamsNamed(name, q)
}

// parseParamsNamed parses the common query parameters for a dataset whose
// name arrived out of band — from the query (parseParams) or from the tile
// endpoint's path.
func (s *Server) parseParamsNamed(name string, q url.Values) (*renderParams, error) {
	n := s.DefaultN
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > maxN {
			return nil, fmt.Errorf("bad n %q (1..%d)", v, maxN)
		}
		n = parsed
	}
	seed := int64(1)
	if v := q.Get("seed"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", v)
		}
		seed = parsed
	}
	kernName := q.Get("kernel")
	if kernName == "" {
		kernName = "gaussian"
	}
	kern, err := quad.ParseKernel(kernName)
	if err != nil {
		return nil, err
	}
	methodName := q.Get("method")
	if methodName == "" {
		methodName = "quad"
	}
	method, err := quad.ParseMethod(methodName)
	if err != nil {
		return nil, err
	}
	res := quad.Resolution{W: 640, H: 480}
	if v := q.Get("res"); v != "" {
		parts := strings.Split(strings.ToLower(v), "x")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad res %q (want WxH)", v)
		}
		res.W, err = strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad res %q", v)
		}
		res.H, err = strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad res %q", v)
		}
	}
	// Bound each side before multiplying, or W*H can wrap past the cap.
	if res.W < 1 || res.H < 1 || res.W > maxPixels || res.H > maxPixels || res.W*res.H > maxPixels {
		return nil, fmt.Errorf("resolution %dx%d out of range (max %d pixels)", res.W, res.H, maxPixels)
	}
	eps := 0.01
	if v := q.Get("eps"); v != "" {
		eps, err = strconv.ParseFloat(v, 64)
		if err != nil || !(eps >= 0 && eps <= 1) { // also rejects NaN
			return nil, fmt.Errorf("bad eps %q (0..1)", v)
		}
	}
	var window quad.Window
	if v := q.Get("bbox"); v != "" {
		// bbox=minX,minY,maxX,maxY — the pan/zoom window.
		parts := strings.Split(v, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad bbox %q (want minX,minY,maxX,maxY)", v)
		}
		vals := make([]float64, 4)
		for i, p := range parts {
			vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("bad bbox %q", v)
			}
		}
		window = quad.Window{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
		if err := window.Validate(); err != nil {
			return nil, fmt.Errorf("bad bbox %q: %v", v, err)
		}
	}
	return &renderParams{
		name:     name,
		n:        n,
		seed:     seed,
		kern:     kern,
		method:   method,
		res:      res,
		eps:      eps,
		logScale: q.Get("log") != "0",
		window:   window,
	}, nil
}

// parseError answers a failed parse: context errors (deadline while
// waiting on a build, client disconnect) keep their server-side status;
// everything else is the client's fault.
func parseError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		requestError(w, r, err)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// kdvFor returns the (cached) KDV the params render from, building it on a
// miss. A sharded build (quad.WithShard) derives bandwidth, weights and the
// default window from the full dataset before keeping its shard's points,
// which is what makes per-shard rasters merge exactly.
func (s *Server) kdvFor(ctx context.Context, p *renderParams) (*quad.KDV, error) {
	key := cacheKey(p)
	sp, ctx := trace.StartSpan(ctx, "cache")
	k, outcome, err := s.cache.Do(ctx, key, func() (*quad.KDV, error) {
		pts, err := dataset.Generate2D(p.name, p.n, p.seed)
		if err != nil {
			return nil, err
		}
		opts := []quad.Option{
			quad.WithKernel(p.kern), quad.WithMethod(p.method), quad.WithZOrderGuarantee(p.eps, 0.2),
		}
		if p.shard.Count > 0 {
			opts = append(opts, quad.WithShard(p.shard.Index, p.shard.Count))
		}
		return quad.New(pts.Coords, pts.Dim, opts...)
	})
	s.m.countCache(outcome)
	sp.SetAttrs(trace.Str("key", key), trace.Str("outcome", string(outcome)))
	sp.End()
	setCacheOutcome(ctx, string(outcome))
	return k, err
}

// cacheKey identifies a built KDV. eps participates only for MethodZOrder,
// where it dimensions the Z-order sample (WithZOrderGuarantee) — reusing a
// zorder build across eps values would silently void the sampling
// guarantee. For the bound-based methods eps is a query parameter, not a
// build parameter, so keeping it out of the key preserves their hit rate.
// A shard build is keyed by its shard spec too.
func cacheKey(p *renderParams) string {
	key := fmt.Sprintf("%s/%d/%d/%s/%s", p.name, p.n, p.seed, p.kern, p.method)
	if p.method == quad.MethodZOrder {
		key += fmt.Sprintf("/eps=%g", p.eps)
	}
	if p.shard.Count > 0 {
		key += "/shard=" + p.shard.String()
	}
	return key
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseParams(r)
	if err != nil {
		s.m.recordOutcome("render", "error")
		parseError(w, r, err)
		return
	}
	if s.cfg.Cluster != nil && p.method != quad.MethodZOrder {
		s.renderViaCluster(w, r, p)
		return
	}
	req, err := s.materialize(r.Context(), p)
	if err != nil {
		s.m.recordOutcome("render", "error")
		parseError(w, r, err)
		return
	}
	out, err := req.kdv.Render(r.Context(), quad.Request{Res: req.res, Window: req.window, Eps: req.eps})
	st := out.Stats
	setRenderStats(r, &st)
	s.m.recordRenderStats("render", st)
	if err == nil {
		s.m.recordOutcome("render", "ok")
		s.auditEpsMap(w, "render", p, out.Density, exactDensity(req.kdv))
		setStatsHeaders(w, st)
		w.Header().Set("X-KDV-Complete", "true")
		writeDensityPNG(w, r, out.Density, req.logScale)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// Graceful degradation: the deadline fired but the client is still
		// connected — answer with the progressive partial raster instead
		// of an error.
		if pr := s.degraded(r, req); pr != nil {
			s.m.recordOutcome("render", "degraded")
			s.m.degraded.Inc()
			// A deadline-degraded partial raster carries no per-pixel
			// guarantee (unevaluated pixels hold coarse bounds), so it is
			// counted unauditable rather than checked.
			if s.auditor.ShouldAudit() {
				s.auditor.Skip("degraded")
			}
			s.m.pixels.AddInt(pr.Evaluated)
			setStatsHeaders(w, st)
			w.Header().Set("X-KDV-Complete", strconv.FormatBool(pr.Complete))
			w.Header().Set("X-KDV-Evaluated", strconv.Itoa(pr.Evaluated))
			writeDensityPNG(w, r, pr.Density, req.logScale)
			return
		}
	}
	s.m.recordOutcome("render", "error")
	requestError(w, r, err)
}

// renderViaCluster fans the render out across the coordinator's workers by
// data shard and serves the additively merged raster. Densities are
// additive over the Z-order partition, so the merge carries the same ε
// guarantee as a local render. When workers stay unreachable past budget
// the merge of the live shards is served flagged X-KDV-Complete: false with
// X-KDV-Shards: k/n — the distributed analogue of the deadline-degraded
// partial raster.
func (s *Server) renderViaCluster(w http.ResponseWriter, r *http.Request, p *renderParams) {
	cres, err := s.cfg.Cluster.RenderEps(r.Context(), cluster.RenderRequest{
		Dataset: p.name,
		N:       p.n,
		Seed:    p.seed,
		Kernel:  p.kern,
		Method:  p.method,
		Eps:     p.eps,
		Res:     p.res,
		Window:  p.window,
	})
	if err != nil {
		s.m.recordOutcome("render", "error")
		if r.Context().Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			requestError(w, r, err)
			return
		}
		// The cluster is the upstream here: its total failure is a gateway
		// error, not a client error.
		writeError(w, http.StatusBadGateway, "cluster render failed: %v", err)
		return
	}
	outcome := "ok"
	if !cres.Complete {
		outcome = "degraded"
		s.m.degraded.Inc()
	}
	s.m.recordOutcome("render", outcome)
	s.m.recordRenderStats("render", cres.Stats)
	s.auditClusterRender(w, p, cres)
	setRenderStats(r, &cres.Stats)
	setStatsHeaders(w, cres.Stats)
	w.Header().Set("X-KDV-Complete", strconv.FormatBool(cres.Complete))
	w.Header().Set("X-KDV-Shards", cres.ShardsHeader())
	dm := &quad.DensityMap{
		Res:       cres.Res,
		Values:    cres.Values,
		WindowMin: cres.WindowMin,
		WindowMax: cres.WindowMax,
	}
	writeDensityPNG(w, r, dm, p.logScale)
}

// degraded runs the short progressive fallback render for a /render that
// missed its deadline. It works under the client's base (undeadlined)
// context so a disconnect still cancels it, bounded by a grace timeout a
// little above the degrade budget. Returns nil if the fallback also failed
// (e.g. the client is gone).
func (s *Server) degraded(r *http.Request, req *request) *quad.Result {
	base := baseContext(r)
	if base.Err() != nil {
		return nil
	}
	budget := s.cfg.DegradeBudget
	ctx, cancel := context.WithTimeout(base, budget+budget/2+100*time.Millisecond)
	defer cancel()
	pr, err := req.kdv.Render(ctx, quad.Request{
		Variant: quad.ProgressiveKDV, Res: req.res, Window: req.window, Eps: req.eps, Budget: budget,
	})
	if err != nil {
		return nil
	}
	return &pr
}

func (s *Server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseParams(r)
	if err != nil {
		s.m.recordOutcome("hotspots", "error")
		parseError(w, r, err)
		return
	}
	req, err := s.materialize(r.Context(), p)
	if err != nil {
		s.m.recordOutcome("hotspots", "error")
		parseError(w, r, err)
		return
	}
	tau, err := s.resolveTau(r.Context(), req, r.URL.Query().Get("tau"))
	if err != nil {
		s.m.recordOutcome("hotspots", "error")
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			requestError(w, r, err)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	out, err := req.kdv.Render(r.Context(), quad.Request{Variant: quad.TauKDV, Res: req.res, Window: req.window, Tau: tau})
	hm, st := out.Hot, out.Stats
	setRenderStats(r, &st)
	s.m.recordRenderStats("hotspots", st)
	if err != nil {
		s.m.recordOutcome("hotspots", "error")
		requestError(w, r, err)
		return
	}
	img, err := render.Binary(grid.Resolution{W: hm.Res.W, H: hm.Res.H}, hm.Hot)
	if err != nil {
		s.m.recordOutcome("hotspots", "error")
		requestError(w, r, err)
		return
	}
	s.m.recordOutcome("hotspots", "ok")
	s.auditTauMap(w, p, hm, tau, exactDensity(req.kdv))
	setStatsHeaders(w, st)
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-KDV-Tau", strconv.FormatFloat(tau, 'g', -1, 64))
	sp, _ := trace.StartSpan(r.Context(), "encode")
	err = render.EncodePNG(w, img)
	sp.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// resolveTau parses "mu", "mu+0.2", "mu-0.1" or a literal number. NaN is
// rejected: no density compares against it, so every pixel would refine to
// exhaustion and come out cold. ±Inf decides every pixel without
// refinement and stays accepted.
func (s *Server) resolveTau(ctx context.Context, req *request, spec string) (float64, error) {
	spec = strings.TrimSpace(strings.ToLower(spec))
	if spec == "" {
		spec = "mu"
	}
	tau, err := strconv.ParseFloat(spec, 64)
	if err != nil {
		if !strings.HasPrefix(spec, "mu") {
			return 0, fmt.Errorf("bad tau %q (number, 'mu', or 'mu±k')", spec)
		}
		mult := 0.0
		if rest := spec[2:]; rest != "" {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return 0, fmt.Errorf("bad tau %q", spec)
			}
			mult = v
		}
		stride := 1 + req.res.W*req.res.H/4096
		mu, sigma, err := req.kdv.ThresholdStatsCtx(ctx, req.res, stride, req.eps)
		if err != nil {
			return 0, err
		}
		tau = mu + mult*sigma
	}
	if math.IsNaN(tau) {
		return 0, fmt.Errorf("bad tau %q (not a number)", spec)
	}
	return tau, nil
}

func (s *Server) handleProgressive(w http.ResponseWriter, r *http.Request) {
	req, err := s.parse(r)
	if err != nil {
		s.m.recordOutcome("progressive", "error")
		parseError(w, r, err)
		return
	}
	budget := 500 * time.Millisecond
	if v := r.URL.Query().Get("budget"); v != "" {
		budget, err = time.ParseDuration(v)
		if err != nil || budget <= 0 || budget > time.Minute {
			s.m.recordOutcome("progressive", "error")
			writeError(w, http.StatusBadRequest, "bad budget %q (0 < d ≤ 1m)", v)
			return
		}
	}
	// Clamp the budget under the request deadline so the deadline shows up
	// as a smaller partial result rather than a 503.
	if rem := deadlineRemaining(r.Context(), 0); rem > 0 && budget > rem-rem/10 {
		budget = rem - rem/10
	}
	res, err := req.kdv.Render(r.Context(), quad.Request{
		Variant: quad.ProgressiveKDV, Res: req.res, Window: req.window, Eps: req.eps, Budget: budget,
	})
	if err != nil {
		s.m.recordOutcome("progressive", "error")
		requestError(w, r, err)
		return
	}
	s.m.recordOutcome("progressive", "ok")
	s.m.pixels.AddInt(res.Evaluated)
	s.m.renderSeconds["progressive"].ObserveDuration(res.Stats.Elapsed)
	setRenderStats(r, &res.Stats)
	setStatsHeaders(w, res.Stats)
	w.Header().Set("X-KDV-Evaluated", strconv.Itoa(res.Evaluated))
	w.Header().Set("X-KDV-Complete", strconv.FormatBool(res.Complete))
	writeDensityPNG(w, r, res.Density, req.logScale)
}

func writeDensityPNG(w http.ResponseWriter, r *http.Request, dm *quad.DensityMap, logScale bool) {
	v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
	scale := render.Linear
	if logScale {
		scale = render.Log
	}
	w.Header().Set("Content-Type", "image/png")
	sp, _ := trace.StartSpan(r.Context(), "encode")
	err := render.EncodePNG(w, render.Heatmap(v, scale))
	sp.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
