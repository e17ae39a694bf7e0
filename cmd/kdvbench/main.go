// Command kdvbench regenerates the paper's evaluation artifacts (Section 7):
// every figure's data series is printed as an aligned table, and the figure
// experiments that are images (Figures 2 and 21) are written as PNGs.
//
// Usage:
//
//	kdvbench -exp fig14              # one experiment (see -list)
//	kdvbench -exp all                # the whole evaluation
//	kdvbench -exp fig2 -out results  # experiments that emit PNGs
//	kdvbench -full                   # paper-scale datasets/resolutions
//	kdvbench -json bench.json        # render benchmark; exit 1 if a claim fails
//
// The default configuration is scaled for a single-core machine; cells that
// exceed -timeout are measured on a pixel prefix and extrapolated (printed
// with a '~' prefix), mirroring the paper's 2-hour timeout convention.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/harness"
	"github.com/quadkdv/quad/internal/logging"
	"github.com/quadkdv/quad/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		full     = flag.Bool("full", false, "paper-scale configuration (slow)")
		outDir   = flag.String("out", "", "directory for PNG artifacts")
		seed     = flag.Int64("seed", 20200614, "dataset generator seed")
		timeout  = flag.Duration("timeout", 0, "per-cell timeout (0 = config default)")
		res      = flag.String("res", "", "override grid resolution, e.g. 320x240")
		sizes    = flag.String("sizes", "", "override dataset sizes, e.g. crime=100000,hep=500000")
		jsonPath = flag.String("json", "", "measure tile-shared vs per-pixel rendering, write a JSON report to this path and check its claims (exit 1 if one fails)")
		jsonN    = flag.Int("jsonn", 100000, "dataset cardinality for the -json benchmark")
		pprof    = flag.String("pprof-addr", "", "side listener for net/http/pprof and expvar (empty disables)")
	)
	flag.Parse()
	logger := logging.Setup("kdvbench", nil)

	if *pprof != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		bound, err := telemetry.StartDebug(*pprof, reg)
		if err != nil {
			fatal(err)
		}
		logger.Info("debug listener up", "addr", bound)
	}

	if *jsonPath != "" {
		if err := runJSONBench(*jsonPath, *seed, *jsonN); err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		logger.Error("-exp required (use -list to enumerate, or 'all')")
		os.Exit(2)
	}

	cfg := harness.DefaultConfig(os.Stdout)
	if *full {
		cfg = harness.FullConfig(os.Stdout)
	}
	cfg.Out = os.Stdout
	cfg.Seed = *seed
	cfg.OutDir = *outDir
	if *timeout > 0 {
		cfg.CellTimeout = *timeout
	}
	if *res != "" {
		r, err := parseRes(*res)
		if err != nil {
			fatal(err)
		}
		cfg.Res = r
	}
	if *sizes != "" {
		if cfg.Sizes == nil {
			cfg.Sizes = map[string]int{}
		}
		if err := parseSizes(*sizes, cfg.Sizes); err != nil {
			fatal(err)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	if *exp == "all" {
		for _, e := range harness.Experiments() {
			fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
			if err := e.Run(&cfg); err != nil {
				fatal(fmt.Errorf("%s: %w", e.ID, err))
			}
		}
	} else {
		e, ok := harness.Find(*exp)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (use -list)", *exp))
		}
		if err := e.Run(&cfg); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("\nkdvbench: done in %s\n", time.Since(start).Round(time.Millisecond))
}

func parseRes(s string) (grid.Resolution, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 {
		return grid.Resolution{}, fmt.Errorf("bad resolution %q (want WxH)", s)
	}
	w, err := strconv.Atoi(parts[0])
	if err != nil {
		return grid.Resolution{}, err
	}
	h, err := strconv.Atoi(parts[1])
	if err != nil {
		return grid.Resolution{}, err
	}
	return grid.Resolution{W: w, H: h}, nil
}

func parseSizes(s string, into map[string]int) error {
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad size spec %q (want name=count)", kv)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return err
		}
		into[parts[0]] = n
	}
	return nil
}

func fatal(err error) {
	slog.Error("fatal", "error", err)
	os.Exit(1)
}
