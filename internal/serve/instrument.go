package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	quad "github.com/quadkdv/quad"
)

// statusWriter captures the response status so the metrics and slow-query
// layers can see what the handler answered. A handler that never writes
// leaves status 0, which instrument treats as the implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// statsCtxKey carries the per-request statsHolder the render handlers fill
// in, so the slow-query log can include the render's work counters without
// the handlers knowing the log exists.
type statsCtxKey struct{}

type statsHolder struct {
	stats *quad.RenderStats
	// cacheOutcome records how the request's KDV build cache lookup was
	// satisfied ("hit", "miss", "coalesced"; empty when no lookup ran).
	cacheOutcome string
}

// setRenderStats publishes a render's stats to the instrumentation
// middleware. Only the request's own goroutine writes the holder, and the
// middleware reads it after the handler returns, so no locking is needed.
func setRenderStats(r *http.Request, st *quad.RenderStats) {
	if h, ok := r.Context().Value(statsCtxKey{}).(*statsHolder); ok {
		h.stats = st
	}
}

// setCacheOutcome publishes the request's cache-lookup outcome to the
// instrumentation middleware (same single-goroutine discipline as
// setRenderStats).
func setCacheOutcome(ctx context.Context, outcome string) {
	if h, ok := ctx.Value(statsCtxKey{}).(*statsHolder); ok {
		h.cacheOutcome = outcome
	}
}

// instrument wraps the whole handler tree with the HTTP-level telemetry:
// per-endpoint request/status counters, latency histograms, the in-flight
// gauge, and the slow-query log. It sits inside requestID (so the ID is on
// the response) and outside recoverJSON (so panics are counted as the 500s
// they become).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointLabel(r.URL.Path)
		s.m.inFlight.Inc()
		defer s.m.inFlight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		holder := &statsHolder{}
		r = r.WithContext(context.WithValue(r.Context(), statsCtxKey{}, holder))
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.m.httpRequests[ep][codeClass(status)].Inc()
		s.m.httpLatency[ep].ObserveDuration(elapsed)
		s.logSlowQuery(sw, r, status, elapsed, holder)
	})
}

// slowQueryEntry is one JSON line of the slow-query log. Field order is
// fixed by the struct so the log is stable for tooling. TraceID is present
// for traced requests, so a slow line can be joined against the exported
// spans; Cache records how the KDV build lookup was satisfied.
type slowQueryEntry struct {
	Time      string          `json:"time"`
	RequestID string          `json:"request_id"`
	TraceID   string          `json:"trace_id,omitempty"`
	Method    string          `json:"method"`
	Path      string          `json:"path"`
	Query     string          `json:"query"`
	Status    int             `json:"status"`
	ElapsedMs float64         `json:"elapsed_ms"`
	Cache     string          `json:"cache,omitempty"`
	Stats     *slowQueryStats `json:"stats,omitempty"`
}

// slowQueryStats is the render's RenderStats. SharedMs is CPU time of the
// shared-frontier stage summed across the render's Workers goroutines, so
// it can exceed RenderMs, which is wall time.
type slowQueryStats struct {
	Pixels        int     `json:"pixels"`
	QueuePops     int     `json:"queue_pops"`
	NodeEvals     int     `json:"node_evals"`
	LeafScans     int     `json:"leaf_scans"`
	PointsScanned int     `json:"points_scanned"`
	SharedEvals   int     `json:"shared_evals"`
	TilesDecided  int     `json:"tiles_decided"`
	Promotions    int     `json:"promotions"`
	Workers       int     `json:"workers"`
	RenderMs      float64 `json:"render_ms"`
	SharedMs      float64 `json:"shared_ms"`
}

// logSlowQuery appends one JSON line for any request that ran at least the
// configured threshold, with the render's work counters when the handler
// published them.
func (s *Server) logSlowQuery(w http.ResponseWriter, r *http.Request, status int, elapsed time.Duration, holder *statsHolder) {
	if s.cfg.SlowQuery <= 0 || elapsed < s.cfg.SlowQuery || s.cfg.SlowQueryLog == nil {
		return
	}
	entry := slowQueryEntry{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: responseID(w),
		TraceID:   responseTraceID(w),
		Method:    r.Method,
		Path:      r.URL.Path,
		Query:     r.URL.RawQuery,
		Status:    status,
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
		Cache:     holder.cacheOutcome,
	}
	if st := holder.stats; st != nil {
		entry.Stats = &slowQueryStats{
			Pixels:        st.Pixels,
			QueuePops:     st.Iterations,
			NodeEvals:     st.NodesEvaluated,
			LeafScans:     st.LeafScans,
			PointsScanned: st.PointsScanned,
			SharedEvals:   st.SharedNodeEvals,
			TilesDecided:  st.TilesDecided,
			Promotions:    st.FrontierPromotions,
			Workers:       st.Workers,
			RenderMs:      float64(st.Elapsed) / float64(time.Millisecond),
			SharedMs:      float64(st.SharedElapsed) / float64(time.Millisecond),
		}
	}
	line, err := json.Marshal(entry)
	if err != nil {
		s.log.Error("slow-query marshal failed", "request_id", entry.RequestID, "error", err)
		return
	}
	line = append(line, '\n')
	s.slowMu.Lock()
	_, _ = s.cfg.SlowQueryLog.Write(line)
	s.slowMu.Unlock()
}
