package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/cluster"
	"github.com/quadkdv/quad/internal/lru"
	"github.com/quadkdv/quad/internal/telemetry"
)

// endpoints are the label values of the per-endpoint HTTP metrics. Every
// series is pre-registered at server construction so the request path only
// touches atomics (and so scrapes show zero-valued series instead of
// absent ones).
var endpoints = []string{"render", "tiles", "hotspots", "progressive", "workmap", "shard", "info", "healthz", "readyz", "metrics", "other"}

// codeClasses bucket response statuses; per-exact-code series would blow up
// cardinality without telling an operator more than the class does.
var codeClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// renderOutcomes label kdv_render_requests_total: ok (full raster within
// deadline), degraded (progressive fallback raster), error (no raster).
var renderOutcomes = []string{"ok", "degraded", "error"}

// metrics is the server's whole metric surface, resolved once at
// construction. Everything is nil-safe through the telemetry recorders, so
// a Server without metrics (not constructible today, but cheap to keep
// true) records nothing.
type metrics struct {
	reg *telemetry.Registry

	httpRequests map[string]map[string]*telemetry.Counter // endpoint → class
	httpLatency  map[string]*telemetry.Histogram          // endpoint
	inFlight     *telemetry.Gauge

	renderRequests map[string]map[string]*telemetry.Counter // endpoint → outcome
	renderSeconds  map[string]*telemetry.Histogram          // endpoint
	degraded       *telemetry.Counter

	queuePops     *telemetry.Counter
	nodeEvals     *telemetry.Counter
	leafScans     *telemetry.Counter
	pointsScanned *telemetry.Counter
	sharedEvals   *telemetry.Counter
	tilesDecided  *telemetry.Counter
	promotions    *telemetry.Counter
	pixels        *telemetry.Counter

	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter
	cacheCoalesced *telemetry.Counter
	cacheEntries   *telemetry.Gauge

	admAdmitted  *telemetry.Counter
	admRejected  *telemetry.Counter
	admQueueWait *telemetry.Histogram
	admInFlight  *telemetry.Gauge

	ready *telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry) *metrics {
	m := &metrics{
		reg:            reg,
		httpRequests:   make(map[string]map[string]*telemetry.Counter, len(endpoints)),
		httpLatency:    make(map[string]*telemetry.Histogram, len(endpoints)),
		renderRequests: make(map[string]map[string]*telemetry.Counter, 3),
		renderSeconds:  make(map[string]*telemetry.Histogram, 3),
	}
	for _, ep := range endpoints {
		byClass := make(map[string]*telemetry.Counter, len(codeClasses))
		for _, cl := range codeClasses {
			byClass[cl] = reg.Counter("kdv_http_requests_total",
				"HTTP requests served, by endpoint and status class.",
				telemetry.L("endpoint", ep), telemetry.L("code", cl))
		}
		m.httpRequests[ep] = byClass
		m.httpLatency[ep] = reg.Histogram("kdv_http_request_seconds",
			"HTTP request latency in seconds, by endpoint.",
			telemetry.DurationBuckets, telemetry.L("endpoint", ep))
	}
	m.inFlight = reg.Gauge("kdv_http_in_flight", "HTTP requests currently being handled.")
	for _, ep := range []string{"render", "tiles", "hotspots", "progressive", "workmap", "shard"} {
		byOutcome := make(map[string]*telemetry.Counter, len(renderOutcomes))
		for _, oc := range renderOutcomes {
			byOutcome[oc] = reg.Counter("kdv_render_requests_total",
				"Render requests, by endpoint and outcome (ok, degraded, error).",
				telemetry.L("endpoint", ep), telemetry.L("outcome", oc))
		}
		m.renderRequests[ep] = byOutcome
		m.renderSeconds[ep] = reg.Histogram("kdv_render_seconds",
			"Wall time of the render itself (excluding queueing and encoding), by endpoint.",
			telemetry.DurationBuckets, telemetry.L("endpoint", ep))
	}
	m.degraded = reg.Counter("kdv_render_degraded_total",
		"Renders that missed their deadline and answered with the progressive partial raster.")

	m.queuePops = reg.Counter("kdv_render_queue_pops_total",
		"Priority-queue pops across per-pixel refinements (paper Section 3.2 iterations).")
	m.nodeEvals = reg.Counter("kdv_render_node_evals_total",
		"kd-tree node bound evaluations during per-pixel refinement.")
	m.leafScans = reg.Counter("kdv_render_leaf_scans_total",
		"Exact leaf fallbacks: leaves whose points were scanned exactly.")
	m.pointsScanned = reg.Counter("kdv_render_points_scanned_total",
		"Points scanned exactly inside leaf fallbacks.")
	m.sharedEvals = reg.Counter("kdv_render_shared_node_evals_total",
		"Tile-uniform bound evaluations (shared frontier phase and promotions).")
	m.tilesDecided = reg.Counter("kdv_render_tile_envelope_decided_total",
		"τKDV tiles classified whole by the shared tile envelope (zero per-pixel work).")
	m.promotions = reg.Counter("kdv_render_frontier_promotions_total",
		"Frontier promotions triggered by the coherence signal during per-pixel refinement.")
	m.pixels = reg.Counter("kdv_render_pixels_total", "Pixels rendered.")

	m.cacheHits = reg.Counter("kdv_cache_hits_total", "KDV build cache hits.")
	m.cacheMisses = reg.Counter("kdv_cache_misses_total", "KDV build cache misses (builds started).")
	m.cacheEvictions = reg.Counter("kdv_cache_evictions_total", "KDV build cache LRU evictions.")
	m.cacheCoalesced = reg.Counter("kdv_cache_coalesced_total",
		"Requests that waited on another request's in-flight build (singleflight).")
	m.cacheEntries = reg.Gauge("kdv_cache_entries", "KDV build cache residency.")

	m.admAdmitted = reg.Counter("kdv_admission_admitted_total", "Requests granted a render slot.")
	m.admRejected = reg.Counter("kdv_admission_rejected_total",
		"Requests rejected with 429 because slots and queue were full.")
	m.admQueueWait = reg.Histogram("kdv_admission_queue_wait_seconds",
		"Time spent queued for a render slot.", telemetry.DurationBuckets)
	m.admInFlight = reg.Gauge("kdv_admission_in_flight", "Renders currently holding a slot.")

	m.ready = reg.Gauge("kdv_ready", "1 once the warmup build has completed, else 0.")
	return m
}

// recordRenderStats folds one render's RenderStats into the work counters.
func (m *metrics) recordRenderStats(endpoint string, st quad.RenderStats) {
	if m == nil {
		return
	}
	m.queuePops.AddInt(st.Iterations)
	m.nodeEvals.AddInt(st.NodesEvaluated)
	m.leafScans.AddInt(st.LeafScans)
	m.pointsScanned.AddInt(st.PointsScanned)
	m.sharedEvals.AddInt(st.SharedNodeEvals)
	m.tilesDecided.AddInt(st.TilesDecided)
	m.promotions.AddInt(st.FrontierPromotions)
	m.pixels.AddInt(st.Pixels)
	m.renderSeconds[endpoint].ObserveDuration(st.Elapsed)
}

// countCache counts one KDV build cache lookup by how it was answered.
func (m *metrics) countCache(o lru.Outcome) {
	switch o {
	case lru.Hit:
		m.cacheHits.Inc()
	case lru.Miss:
		m.cacheMisses.Inc()
	default:
		m.cacheCoalesced.Inc()
	}
}

// recordOutcome counts one render request's outcome on a render endpoint.
func (m *metrics) recordOutcome(endpoint, outcome string) {
	if m == nil {
		return
	}
	if byOutcome, ok := m.renderRequests[endpoint]; ok {
		byOutcome[outcome].Inc()
	}
}

// endpointLabel maps a request path to its metric label; unknown paths
// share one "other" series so arbitrary probes cannot mint series.
func endpointLabel(path string) string {
	switch path {
	case "/render":
		return "render"
	case "/hotspots":
		return "hotspots"
	case "/progressive":
		return "progressive"
	case "/debug/workmap":
		return "workmap"
	case cluster.ShardRenderPath:
		return "shard"
	case "/info":
		return "info"
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	case "/metrics":
		return "metrics"
	}
	if strings.HasPrefix(path, "/tiles/") {
		return "tiles"
	}
	return "other"
}

func codeClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	}
	return "2xx"
}

// setStatsHeaders surfaces the render's work counters as X-KDV-Stats-*
// response headers, the per-request view of the /metrics aggregates.
func setStatsHeaders(w http.ResponseWriter, st quad.RenderStats) {
	h := w.Header()
	h.Set("X-KDV-Stats-Pops", strconv.Itoa(st.Iterations))
	h.Set("X-KDV-Stats-Node-Evals", strconv.Itoa(st.NodesEvaluated))
	h.Set("X-KDV-Stats-Leaf-Scans", strconv.Itoa(st.LeafScans))
	h.Set("X-KDV-Stats-Points", strconv.Itoa(st.PointsScanned))
	h.Set("X-KDV-Stats-Shared-Evals", strconv.Itoa(st.SharedNodeEvals))
	h.Set("X-KDV-Stats-Tiles-Decided", strconv.Itoa(st.TilesDecided))
	h.Set("X-KDV-Stats-Promotions", strconv.Itoa(st.FrontierPromotions))
	h.Set("X-KDV-Stats-Workers", strconv.Itoa(st.Workers))
	h.Set("X-KDV-Stats-Render-Ms",
		strconv.FormatFloat(float64(st.Elapsed)/float64(time.Millisecond), 'f', 3, 64))
}
