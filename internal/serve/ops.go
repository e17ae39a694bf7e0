package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/quadkdv/quad/internal/dataset"
)

// handleOps serves GET /debug/ops: one JSON document with the process's
// operational state — build identity, dataset and tileset registries, the
// cache/admission/breaker positions, the shadow auditor's state (including
// recent violations with their trace IDs), and the SLO snapshot with
// per-window burn rates. It is the page an on-call engineer reads first;
// everything in it is also on /metrics, but here it is joined and
// human-shaped.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	s.slo.Refresh()
	snap := map[string]any{
		"build":           buildInfo(),
		"uptime_seconds":  time.Since(s.start).Seconds(),
		"ready":           s.warmState.Load() == warmDone,
		"datasets":        dataset.Names(),
		"default_dataset": s.cfg.WarmDataset,
		"default_n":       s.DefaultN,
		"limits": map[string]any{
			"max_concurrent":  s.cfg.MaxConcurrent,
			"max_queue":       s.cfg.MaxQueue,
			"cache_size":      s.cfg.CacheSize,
			"request_timeout": s.cfg.RequestTimeout.String(),
		},
		"cache": map[string]any{
			"entries":   s.cache.Len(),
			"hits":      s.m.cacheHits.Value(),
			"misses":    s.m.cacheMisses.Value(),
			"evictions": s.m.cacheEvictions.Value(),
			"coalesced": s.m.cacheCoalesced.Value(),
		},
		"admission": map[string]any{
			"in_flight": s.adm.inFlight(),
			"admitted":  s.m.admAdmitted.Value(),
			"rejected":  s.m.admRejected.Value(),
		},
		"tilesets": s.pyramids.Keys(),
		"audit":    s.auditor.State(),
		"slo":      s.slo.Snapshot(),
	}
	if c := s.cfg.Cluster; c != nil {
		workers := c.Workers()
		states := c.BreakerStates()
		ws := make([]map[string]any, len(workers))
		for i, wk := range workers {
			ws[i] = map[string]any{"worker": wk, "breaker": states[i].String()}
		}
		snap["cluster"] = map[string]any{"shards": c.Shards(), "workers": ws}
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// buildInfo extracts the process's build identity: Go version, main module
// path/version, and the VCS stamp when the binary was built from a checkout.
func buildInfo() map[string]any {
	info := map[string]any{"go_version": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info["module"] = bi.Main.Path
	if bi.Main.Version != "" {
		info["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			info["revision"] = kv.Value
		case "vcs.time":
			info["build_time"] = kv.Value
		case "vcs.modified":
			info["modified"] = kv.Value == "true"
		}
	}
	return info
}
