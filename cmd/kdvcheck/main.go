// Command kdvcheck runs the guarantee-conformance suite (internal/conformance)
// against a dataset — a CSV file or a seeded synthetic analogue — and emits a
// JSON report. It exits 0 iff every check passed, so `make verify` and CI can
// gate on it.
//
// Usage:
//
//	kdvcheck -dataset crime -n 1500 -json report.json
//	kdvcheck -csv points.csv -eps 0.01 -kernels gaussian,cosine -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/conformance"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/logging"
	"github.com/quadkdv/quad/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and without os.Exit, so tests can
// drive it end to end.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("kdvcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		csvPath  = fs.String("csv", "", "CSV dataset to check (2-d rows; overrides -dataset)")
		dsName   = fs.String("dataset", "crime", "synthetic analogue: elnino|crime|home|hep")
		n        = fs.Int("n", 1500, "points to generate for -dataset")
		seed     = fs.Int64("seed", 7, "generator seed for -dataset and query sampling")
		res      = fs.String("res", "40x30", "raster resolution WxH")
		eps      = fs.Float64("eps", 0.05, "εKDV relative-error budget")
		tauSigma = fs.Float64("tau-sigma", 0.5, "τ threshold at μ + tau-sigma·σ of the exact raster")
		tiles    = fs.String("tiles", "1,4,16", "comma-separated tile sizes")
		kernels  = fs.String("kernels", "", "comma-separated kernels (default all)")
		methods  = fs.String("methods", "", "comma-separated methods (default all)")
		workers  = fs.Int("workers", 1, "render workers")
		quick    = fs.Bool("quick", false, "skip the bound-dominance, metamorphic, and shard-merge passes")
		jsonPath = fs.String("json", "", "also write the JSON report to this path")
		pprof    = fs.String("pprof-addr", "", "side listener for net/http/pprof and expvar (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := logging.Setup("kdvcheck", stderr)
	if *pprof != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		bound, err := telemetry.StartDebug(*pprof, reg)
		if err != nil {
			logger.Error("pprof listener failed", "error", err)
			return 1
		}
		logger.Info("debug listener up", "addr", bound)
	}

	cfg := conformance.Config{
		Eps:             *eps,
		TauSigma:        *tauSigma,
		Workers:         *workers,
		Seed:            *seed,
		SkipBounds:      *quick,
		SkipMetamorphic: *quick,
		SkipSharding:    *quick,
		TileQuick:       *quick,
	}
	var err error
	if cfg.Res, err = parseRes(*res); err != nil {
		return fail(logger, err)
	}
	if cfg.TileSizes, err = parseInts(*tiles); err != nil {
		return fail(logger, fmt.Errorf("bad -tiles: %w", err))
	}
	if cfg.Kernels, err = parseKernels(*kernels); err != nil {
		return fail(logger, err)
	}
	if cfg.Methods, err = parseMethods(*methods); err != nil {
		return fail(logger, err)
	}
	if cfg.Pts, cfg.Name, err = loadPoints(*csvPath, *dsName, *n, *seed); err != nil {
		return fail(logger, err)
	}

	rep, err := conformance.Run(cfg)
	if err != nil {
		return fail(logger, err)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fail(logger, err)
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			return fail(logger, err)
		}
	}
	if !rep.Pass {
		for _, c := range rep.Failures() {
			logger.Error("check failed", "check", c.Name, "detail", c.Detail)
		}
		logger.Error("conformance suite failed", "failed", rep.Failed, "checks", len(rep.Checks))
		return 1
	}
	logger.Info("conformance suite passed", "passed", rep.Passed, "dataset", rep.Dataset, "n", rep.N)
	return 0
}

func fail(logger *slog.Logger, err error) int {
	logger.Error("fatal", "error", err)
	return 2
}

func loadPoints(csvPath, dsName string, n int, seed int64) (geom.Points, string, error) {
	if csvPath != "" {
		pts, err := dataset.LoadFile(csvPath)
		if err != nil {
			return geom.Points{}, "", err
		}
		if pts.Dim > 2 {
			pts = dataset.First2D(pts)
		}
		return pts, csvPath, nil
	}
	pts, err := dataset.Generate2D(dsName, n, seed)
	if err != nil {
		return geom.Points{}, "", err
	}
	return pts, dsName, nil
}

func parseRes(s string) (grid.Resolution, error) {
	var r grid.Resolution
	if _, err := fmt.Sscanf(s, "%dx%d", &r.W, &r.H); err != nil {
		return r, fmt.Errorf("bad -res %q (want WxH): %w", s, err)
	}
	return r, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseKernels(s string) ([]kernel.Kernel, error) {
	if s == "" {
		return nil, nil
	}
	var out []kernel.Kernel
	for _, f := range strings.Split(s, ",") {
		k, err := kernel.Parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func parseMethods(s string) ([]quad.Method, error) {
	if s == "" {
		return nil, nil
	}
	var out []quad.Method
	for _, f := range strings.Split(s, ",") {
		m, err := quad.ParseMethod(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func writeReport(path string, rep *conformance.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
