package serve

import (
	"net/http"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/cluster"
)

// ShardHandler returns the handler tree of a shard worker (kdvserve
// -worker): the coordinator's internal shard-render route plus /healthz and
// /metrics, behind the same middleware, admission control and deadlines as
// Handler. Any worker serves any shard: the shard spec arrives with each
// request, and built shard KDVs live in the server's KDV cache.
func (s *Server) ShardHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET "+cluster.ShardRenderPath, s.guard(s.handleShardRender))
	return s.middleware(mux)
}

// handleShardRender renders one Z-order data shard of an εKDV request —
// the /render query parameters plus shard=i/n — and answers the raw
// density raster the coordinator merges. The shard build rejects
// MethodZOrder, whose sample is dimensioned for the whole dataset, so a
// zorder shard request answers 400 like any other bad parameter.
func (s *Server) handleShardRender(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseParams(r)
	if err == nil {
		p.shard, err = cluster.ParseShardSpec(r.URL.Query().Get("shard"))
	}
	if err != nil {
		s.m.recordOutcome("shard", "error")
		parseError(w, r, err)
		return
	}
	req, err := s.materialize(r.Context(), p)
	if err != nil {
		s.m.recordOutcome("shard", "error")
		parseError(w, r, err)
		return
	}
	out, err := req.kdv.Render(r.Context(), quad.Request{Res: req.res, Window: req.window, Eps: req.eps})
	dm, st := out.Density, out.Stats
	setRenderStats(r, &st)
	s.m.recordRenderStats("shard", st)
	if err != nil {
		s.m.recordOutcome("shard", "error")
		requestError(w, r, err)
		return
	}
	s.m.recordOutcome("shard", "ok")
	cluster.WriteShardRaster(w, p.shard, dm, st)
}
