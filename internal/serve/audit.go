package serve

import (
	"context"
	"math"
	"net/http"
	"sync"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/audit"
	"github.com/quadkdv/quad/internal/cluster"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/tiles"
	"github.com/quadkdv/quad/internal/trace"
)

// This file is the producer side of the shadow accuracy auditor: each render
// endpoint, after serving a completed raster, flips the sampling coin and —
// when sampled — submits a handful of its pixels (with the data-space query
// coordinates the engine itself evaluated, reconstructed bit-identically
// from the render's grid) for background recomputation against the exact
// Kahan oracle. The request path only copies a few floats; all oracle work
// runs on the auditor's budget-capped pool.

// exactDensity adapts a KDV's exact density (the Kahan–Neumaier oracle) to
// the auditor's query shape.
func exactDensity(k *quad.KDV) func(q []float64) float64 {
	return func(q []float64) float64 {
		d, err := k.Density(q)
		if err != nil {
			return math.NaN() // unevaluable queries pass harmlessly
		}
		return d
	}
}

// gridFor reconstructs the render's pixel-center mapping from the density
// map's recorded window — bit-identical to the grid the engine rendered
// with, because the engine's own grid construction ran the same arithmetic
// over the same window floats.
func gridFor(res quad.Resolution, mn, mx [2]float64) (*grid.Grid, error) {
	return grid.New(grid.Resolution{W: res.W, H: res.H},
		geom.Rect{Min: mn[:], Max: mx[:]})
}

// epsSamples draws the audit pixels from an εKDV raster through the given
// (possibly sub-view) grid.
func epsSamples(a *audit.Auditor, g *grid.Grid, values []float64, w int) []audit.Sample {
	idx := a.SamplePixels(len(values))
	samples := make([]audit.Sample, 0, len(idx))
	q := make([]float64, 2)
	for _, i := range idx {
		px, py := i%w, i/w
		g.Query(px, py, q)
		samples = append(samples, audit.Sample{
			X: px, Y: py, Q: [2]float64{q[0], q[1]}, Value: values[i],
		})
	}
	return samples
}

// auditEpsMap samples a completed full-raster εKDV render. endpoint is
// "render" (local) or "cluster" (merged fan-out).
func (s *Server) auditEpsMap(w http.ResponseWriter, endpoint string, p *renderParams, dm *quad.DensityMap, exact func(q []float64) float64) {
	a := s.auditor
	if !a.ShouldAudit() {
		return
	}
	if p.method == quad.MethodZOrder {
		// The Z-order sampling bound is probabilistic: a pixel past ε is not
		// evidence of a bug, so these renders are counted, not checked.
		a.Skip("zorder")
		return
	}
	g, err := gridFor(dm.Res, dm.WindowMin, dm.WindowMax)
	if err != nil {
		return
	}
	a.Submit(audit.Job{
		Endpoint: endpoint,
		Dataset:  p.name,
		Method:   p.method.String(),
		Kind:     audit.KindEps,
		Eps:      p.eps,
		TraceID:  responseTraceID(w),
		Samples:  epsSamples(a, g, dm.Values, dm.Res.W),
		Exact:    exact,
	})
}

// auditClusterRender audits a merged fan-out raster. Complete merges are
// checked against the full-dataset oracle; degraded k-of-n merges are NOT
// skipped — their ground truth is the partial-sum oracle over exactly the
// live shards (densities are additive over the Z-order partition), so the ε
// guarantee is auditable on the degraded output too.
func (s *Server) auditClusterRender(w http.ResponseWriter, p *renderParams, cres *cluster.RenderResult) {
	dm := &quad.DensityMap{
		Res:       cres.Res,
		Values:    cres.Values,
		WindowMin: cres.WindowMin,
		WindowMax: cres.WindowMax,
	}
	s.auditEpsMap(w, "cluster", p, dm, s.clusterOracle(p, cres))
}

// clusterOracle returns the ground-truth evaluator for a merged fan-out
// raster, materializing the coordinator's local KDV lazily ON THE AUDIT
// WORKER — the coordinator's request path never pays for a dataset build it
// doesn't otherwise need. A failed build logs and yields NaN, which the
// checker treats as unevaluable (never a violation).
func (s *Server) clusterOracle(p *renderParams, cres *cluster.RenderResult) func(q []float64) float64 {
	var once sync.Once
	var fn func(q []float64) float64
	return func(q []float64) float64 {
		once.Do(func() {
			k, err := s.kdvFor(context.Background(), p)
			if err != nil {
				s.log.Error("audit oracle build failed", "dataset", p.name, "error", err)
				return
			}
			if cres.Complete {
				fn = exactDensity(k)
				return
			}
			pf, err := k.OraclePartial(cres.Live, cres.TotalShards)
			if err != nil {
				s.log.Error("audit partial oracle failed", "dataset", p.name,
					"live_shards", len(cres.Live), "total_shards", cres.TotalShards, "error", err)
				return
			}
			fn = pf
		})
		if fn == nil {
			return math.NaN()
		}
		return fn(q)
	}
}

// auditTauMap samples a completed τKDV classification raster.
func (s *Server) auditTauMap(w http.ResponseWriter, p *renderParams, hm *quad.HotspotMap, tau float64, exact func(q []float64) float64) {
	a := s.auditor
	if !a.ShouldAudit() {
		return
	}
	if p.method == quad.MethodZOrder {
		a.Skip("zorder")
		return
	}
	g, err := gridFor(hm.Res, hm.WindowMin, hm.WindowMax)
	if err != nil {
		return
	}
	idx := a.SamplePixels(len(hm.Hot))
	samples := make([]audit.Sample, 0, len(idx))
	q := make([]float64, 2)
	for _, i := range idx {
		px, py := i%hm.Res.W, i/hm.Res.W
		g.Query(px, py, q)
		samples = append(samples, audit.Sample{
			X: px, Y: py, Q: [2]float64{q[0], q[1]}, Hot: hm.Hot[i],
		})
	}
	a.Submit(audit.Job{
		Endpoint: "hotspots",
		Dataset:  p.name,
		Method:   p.method.String(),
		Kind:     audit.KindTau,
		Tau:      tau,
		TraceID:  responseTraceID(w),
		Samples:  samples,
		Exact:    exact,
	})
}

// auditTile samples a freshly built pyramid tile (the OnBuilt hook). The
// tile's query coordinates come from the full-pyramid grid's sub-view —
// the same mapping the sub-rect render evaluated.
func (s *Server) auditTile(ctx context.Context, p *renderParams, pyr *tiles.Pyramid, k *quad.KDV, c tiles.Coord, dm *quad.DensityMap) {
	a := s.auditor
	if !a.ShouldAudit() {
		return
	}
	if p.method == quad.MethodZOrder {
		a.Skip("zorder")
		return
	}
	full, sub := c.PixelRect(pyr.TileSize())
	win := pyr.Window()
	g, err := grid.New(grid.Resolution{W: full.W, H: full.H},
		geom.Rect{Min: []float64{win.MinX, win.MinY}, Max: []float64{win.MaxX, win.MaxY}})
	if err != nil {
		return
	}
	sg, err := g.Sub(sub.X0, sub.Y0, dm.Res.W, dm.Res.H)
	if err != nil {
		return
	}
	traceID := ""
	if tr := trace.FromContext(ctx); tr != nil {
		traceID = tr.ID().String()
	}
	a.Submit(audit.Job{
		Endpoint: "tile",
		Dataset:  p.name,
		Method:   p.method.String(),
		Kind:     audit.KindEps,
		Eps:      p.eps,
		TraceID:  traceID,
		Samples:  epsSamples(a, sg, dm.Values, dm.Res.W),
		Exact:    exactDensity(k),
	})
}

// sloLatencyBound is the latency objective's threshold in seconds. It is an
// exact DurationBuckets bound, so the bucket-based good-event count is
// precise rather than interpolated.
const sloLatencyBound = 2.5

// initSLO declares the serving layer's objectives and registers their
// multi-window burn-rate gauges. Ratios are computed from the counters the
// server already maintains — the SLO layer adds no per-request work.
func (s *Server) initSLO(reg *telemetry.Registry) {
	s.slo = telemetry.NewSLO(reg, nil, nil)

	httpTotal := func() uint64 {
		var n uint64
		for _, ep := range endpoints {
			for _, cl := range codeClasses {
				n += s.m.httpRequests[ep][cl].Value()
			}
		}
		return n
	}
	// Availability: a request is good unless the server failed it (5xx).
	s.slo.Add(telemetry.Objective{
		Name: "availability",
		Goal: 0.999,
		Good: func() uint64 {
			var n uint64
			for _, ep := range endpoints {
				for _, cl := range codeClasses {
					if cl != "5xx" {
						n += s.m.httpRequests[ep][cl].Value()
					}
				}
			}
			return n
		},
		Total: httpTotal,
	})
	// Latency: the p99 objective as a bucket count — 99% of requests finish
	// within sloLatencyBound.
	s.slo.Add(telemetry.Objective{
		Name: "latency",
		Goal: 0.99,
		Good: func() uint64 {
			var n uint64
			for _, ep := range endpoints {
				n += s.m.httpLatency[ep].CountAtOrBelow(sloLatencyBound)
			}
			return n
		},
		Total: func() uint64 {
			var n uint64
			for _, ep := range endpoints {
				n += s.m.httpLatency[ep].Count()
			}
			return n
		},
	})
	// Accuracy: audited pixels that honored the advertised guarantee.
	s.slo.Add(telemetry.Objective{
		Name: "accuracy",
		Goal: 0.999,
		Good: func() uint64 {
			p, v := s.auditor.PixelsChecked(), s.auditor.ViolationCount()
			if v > p {
				return 0
			}
			return p - v
		},
		Total: s.auditor.PixelsChecked,
	})
}
