// Command kdvrender renders a kernel density color map for a CSV dataset
// (or a named synthetic analogue) as a PNG — the library's end-user tool.
//
// Usage:
//
//	kdvrender -data crime.csv -o heat.png -res 640x480 -eps 0.01
//	kdvrender -gen crime -n 100000 -o heat.png                 # synthetic
//	kdvrender -gen home -tau mu+0.1 -o hotspots.png            # τKDV map
//	kdvrender -gen crime -progressive 500ms -o quick.png       # budgeted
//	kdvrender -gen crime -workmap evals -o heat.png            # + work map
//	kdvrender -gen crime -trace render.trace.json -o heat.png  # + Perfetto
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/logging"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/trace"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV dataset (2 numeric columns)")
		gen      = flag.String("gen", "", "generate a synthetic analogue: elnino|crime|home|hep")
		n        = flag.Int("n", 100000, "points to generate with -gen")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("o", "kdv.png", "output PNG path")
		resFlag  = flag.String("res", "640x480", "raster resolution WxH")
		eps      = flag.Float64("eps", 0.01, "εKDV relative error")
		kernName = flag.String("kernel", "gaussian", "kernel: gaussian|triangular|cosine|exponential|epanechnikov|quartic|uniform")
		method   = flag.String("method", "quad", "method: quad|karl|minmax|exact|zorder")
		tauSpec  = flag.String("tau", "", "render a τKDV map instead; 'mu', 'mu+0.2', 'mu-0.1' or a number")
		progress = flag.Duration("progressive", 0, "progressive render with this time budget")
		logScale = flag.Bool("log", true, "logarithmic color scale")
		windowF  = flag.String("window", "", "pan/zoom window minX,minY,maxX,maxY (default: dataset bounds)")
		pprof    = flag.String("pprof-addr", "", "side listener for net/http/pprof and expvar (empty disables)")
		workmapF = flag.String("workmap", "", "also write a per-pixel work-map PNG: depth|evals|gap")
		workmapO = flag.String("workmap-o", "", "work-map output path (default: -o with a .workmap.png suffix)")
		traceOut = flag.String("trace", "", "write the render's spans as a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	)
	flag.Parse()
	logger := logging.Setup("kdvrender", nil)

	if *pprof != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		bound, err := telemetry.StartDebug(*pprof, reg)
		if err != nil {
			fatal(err)
		}
		logger.Info("debug listener up", "addr", bound)
	}
	pts, err := loadPoints(*dataPath, *gen, *n, *seed)
	if err != nil {
		fatal(err)
	}
	kern, err := quad.ParseKernel(*kernName)
	if err != nil {
		fatal(err)
	}
	m, err := quad.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	res, err := parseRes(*resFlag)
	if err != nil {
		fatal(err)
	}
	window, err := parseWindow(*windowF)
	if err != nil {
		fatal(err)
	}
	k, err := quad.New(pts.Coords, pts.Dim, quad.WithKernel(kern), quad.WithMethod(m), quad.WithZOrderGuarantee(*eps, 0.2))
	if err != nil {
		fatal(err)
	}
	logger.Info("dataset ready", "points", k.Len(), "kernel", kern.String(), "method", m.String(), "gamma", k.Gamma())

	var layer quad.WorkMapLayer
	if *workmapF != "" {
		layer, err = quad.ParseWorkMapLayer(*workmapF)
		if err != nil {
			fatal(err)
		}
		if *workmapO == "" {
			*workmapO = strings.TrimSuffix(*out, ".png") + ".workmap.png"
		}
	}
	ctx := context.Background()
	var tr *trace.Trace
	if *traceOut != "" {
		tr = trace.New()
		ctx = trace.NewContext(ctx, tr)
	}

	start := time.Now()
	req := quad.Request{Res: res, Window: window, Eps: *eps, WorkMap: layer != ""}
	if *progress > 0 {
		// Streaming form so a trace decomposes the run into per-level spans.
		req.Variant, req.Budget, req.Emit = quad.ProgressiveKDV, *progress, func(quad.Snapshot) bool { return true }
	}
	if *tauSpec != "" {
		tau, err := resolveTau(k, res, *tauSpec, *eps)
		if err != nil {
			fatal(err)
		}
		req.Variant, req.Eps, req.Tau = quad.TauKDV, 0, tau
	}
	r, err := k.Render(ctx, req)
	if err != nil {
		fatal(err)
	}
	if r.Work != nil {
		if err := saveWorkMap(r.Work, layer, *workmapO); err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond).String()
	switch req.Variant {
	case quad.TauKDV:
		if err := r.Hot.SavePNG(*out); err != nil {
			fatal(err)
		}
		logger.Info("tau render done", "tau", req.Tau, "hot_fraction", r.Hot.HotFraction(), "elapsed", elapsed, "out", *out)
	case quad.ProgressiveKDV:
		if err := r.Density.SavePNG(*out, *logScale); err != nil {
			fatal(err)
		}
		logger.Info("progressive render done", "evaluated", r.Evaluated, "pixels", res.W*res.H,
			"elapsed", r.Stats.Elapsed.Round(time.Millisecond).String(), "out", *out)
	default:
		if err := r.Density.SavePNG(*out, *logScale); err != nil {
			fatal(err)
		}
		logger.Info("eps render done", "eps", *eps, "elapsed", elapsed, "out", *out)
	}
	if tr != nil {
		if err := saveTrace(tr, *traceOut); err != nil {
			fatal(err)
		}
		logger.Info("trace written (open in Perfetto or chrome://tracing)",
			"spans", len(tr.Spans()), "out", *traceOut)
	}
}

// saveWorkMap writes one work-map layer as a PNG and reports the totals so
// the diagnostic is self-describing on stderr.
func saveWorkMap(wm *quad.WorkMap, layer quad.WorkMapLayer, path string) error {
	if err := wm.SavePNG(path, layer); err != nil {
		return err
	}
	depth, evals, gap := wm.Totals()
	slog.Info("work map written", "layer", string(layer), "pops", depth, "evals", evals, "gap_sum", gap, "out", path)
	return nil
}

// saveTrace writes the trace in Chrome trace-event format.
func saveTrace(tr *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadPoints(dataPath, gen string, n int, seed int64) (struct {
	Coords []float64
	Dim    int
}, error) {
	var out struct {
		Coords []float64
		Dim    int
	}
	switch {
	case dataPath != "":
		pts, err := dataset.LoadFile(dataPath)
		if err != nil {
			return out, err
		}
		pts = dataset.First2D(pts)
		out.Coords, out.Dim = pts.Coords, pts.Dim
	case gen != "":
		pts, err := dataset.Generate2D(gen, n, seed)
		if err != nil {
			return out, err
		}
		out.Coords, out.Dim = pts.Coords, pts.Dim
	default:
		return out, fmt.Errorf("one of -data or -gen is required")
	}
	return out, nil
}

func resolveTau(k *quad.KDV, res quad.Resolution, spec string, eps float64) (float64, error) {
	spec = strings.TrimSpace(strings.ToLower(spec))
	if v, err := strconv.ParseFloat(spec, 64); err == nil {
		return v, nil
	}
	if !strings.HasPrefix(spec, "mu") {
		return 0, fmt.Errorf("bad τ spec %q", spec)
	}
	mult := 0.0
	if rest := spec[2:]; rest != "" {
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return 0, fmt.Errorf("bad τ spec %q", spec)
		}
		mult = v
	}
	stride := 1 + res.W*res.H/4096
	mu, sigma, err := k.ThresholdStatsCtx(context.Background(), res, stride, eps)
	if err != nil {
		return 0, err
	}
	return mu + mult*sigma, nil
}

func parseWindow(s string) (quad.Window, error) {
	if s == "" {
		return quad.Window{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return quad.Window{}, fmt.Errorf("bad window %q (want minX,minY,maxX,maxY)", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return quad.Window{}, fmt.Errorf("bad window %q: %v", s, err)
		}
		vals[i] = v
	}
	return quad.Window{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}, nil
}

func parseRes(s string) (quad.Resolution, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 {
		return quad.Resolution{}, fmt.Errorf("bad resolution %q", s)
	}
	w, err := strconv.Atoi(parts[0])
	if err != nil {
		return quad.Resolution{}, err
	}
	h, err := strconv.Atoi(parts[1])
	if err != nil {
		return quad.Resolution{}, err
	}
	return quad.Resolution{W: w, H: h}, nil
}

func fatal(err error) {
	slog.Error("fatal", "error", err)
	os.Exit(1)
}
