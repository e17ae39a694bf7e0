package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	quad "github.com/quadkdv/quad"
)

// handleWorkMap serves GET /debug/workmap: the per-pixel work rasters of a
// render (refinement depth, node evaluations, settle bound gap) as a
// heat-ramp PNG — the diagnostic image that shows *where* the bound engine
// worked, pixel by pixel. Gated behind Config.EnableWorkMap.
//
// Parameters are /render's, plus:
//
//	layer  depth | evals | gap (default evals)
//	tau    when present, the τKDV work map at that threshold (mu±k or a
//	       literal, as on /hotspots); absent → the εKDV work map
func (s *Server) handleWorkMap(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableWorkMap {
		s.m.recordOutcome("workmap", "error")
		writeError(w, http.StatusNotFound, "work-map endpoint disabled (start the server with work maps enabled)")
		return
	}
	req, err := s.parse(r)
	if err != nil {
		s.m.recordOutcome("workmap", "error")
		parseError(w, r, err)
		return
	}
	layer := quad.WorkMapNodeEvals
	if v := r.URL.Query().Get("layer"); v != "" {
		layer, err = quad.ParseWorkMapLayer(v)
		if err != nil {
			s.m.recordOutcome("workmap", "error")
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	rq := quad.Request{Res: req.res, Window: req.window, Eps: req.eps, WorkMap: true}
	if spec := r.URL.Query().Get("tau"); spec != "" {
		tau, err := s.resolveTau(r.Context(), req, spec)
		if err != nil {
			s.m.recordOutcome("workmap", "error")
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				requestError(w, r, err)
			} else {
				writeError(w, http.StatusBadRequest, "%v", err)
			}
			return
		}
		rq.Variant, rq.Eps, rq.Tau = quad.TauKDV, 0, tau
		w.Header().Set("X-KDV-Tau", strconv.FormatFloat(tau, 'g', -1, 64))
	}
	out, err := req.kdv.Render(r.Context(), rq)
	st := out.Stats
	setRenderStats(r, &st)
	s.m.recordRenderStats("workmap", st)
	if err != nil {
		s.m.recordOutcome("workmap", "error")
		requestError(w, r, err)
		return
	}
	s.m.recordOutcome("workmap", "ok")
	setStatsHeaders(w, st)
	w.Header().Set("X-KDV-Workmap-Layer", string(layer))
	w.Header().Set("Content-Type", "image/png")
	if err := out.Work.EncodePNG(w, layer); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
