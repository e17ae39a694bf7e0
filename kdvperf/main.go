// Command kdvperf is the repository's end-to-end benchmark. It boots the
// real serve.Server in-process behind a loopback listener, drives one of
// three seeded closed-loop workloads against it, checks every response and
// re-renders a seeded sample through the library, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	kdvperf --workload pan-zoom --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that replays requests through the layers' public calls and
// reports the per-layer metrics. See README.md for the metric table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kdvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pan-zoom, tile-session or dataset-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build/kdvperf-work", "directory for tile stores and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "kdvperf: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "kdvperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if _, err := readSteal(); err != nil {
		fmt.Fprintf(stderr, "kdvperf: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "kdvperf: %v\n", err)
		return 2
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		workdir:  *workdir,
		out:      stdout,
		busy:     float64(min(wl.clients, runtime.NumCPU())),
		chk:      newChecker(*seed),
	}
	if *traced == 1 {
		b.tr = newTracer(b)
	}
	res, err := b.execute(wl.run)
	b.cleanup()
	if err != nil {
		fmt.Fprintf(stderr, "kdvperf: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "kdvperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs the workload, checks its outputs and assembles the result.
func (b *bench) execute(fn func(*bench, context.Context) error) (*result, error) {
	ctx := context.Background()
	b.logf("kdvperf %s seed=%d seconds=%g trace=%v busy_vcpus=%g", b.workload, b.seed, b.seconds, b.tr != nil, b.busy)
	if err := fn(b, ctx); err != nil {
		return nil, err
	}
	for _, k := range b.kept {
		if err := b.chk.verify(ctx, k.q, k.r); err != nil {
			b.checkFailed(err)
		}
	}
	if v := b.counts.sum("kdv_audit_violations_total"); v != 0 {
		b.checkFailed(fmt.Errorf("kdv_audit_violations_total rose by %g", v))
	}
	for _, p := range b.props {
		b.logf("inputs: %s", p)
	}
	b.logf("checks: %d sampled responses re-rendered through the library; %d check failures",
		len(b.kept), len(b.checkErrs))
	for _, e := range b.checkErrs {
		b.logf("check failed: %s", e)
	}
	for _, f := range b.failures {
		b.logf("request failed: %s", f)
	}
	if len(b.kept) == 0 {
		b.checkFailed(errors.New("no response was sampled for the library re-render"))
	}
	res := &result{
		Correct:   b.failed == 0 && len(b.checkErrs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	b.hostReport()
	var specs []metricSpec
	if b.tr == nil {
		specs = endToEnd
	} else {
		specs = perLayer
		lt := b.tr.layers()
		b.lt = &lt
		path := filepath.Join(b.workdir, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		b.logf("spans: %d written to %s (Chrome trace-event JSON)", len(b.tr.spans()), path)
	}
	for _, s := range specs {
		v, err := s.value(b)
		if err != nil {
			if b.tr == nil {
				// An end-to-end metric the run cannot support fails it.
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			b.logf("absent: %s: %v", s.name, err)
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// hostReport prints the host diagnostics beside the corrected figures, so
// an outlier run can be blamed on the host or on the code.
func (b *bench) hostReport() {
	var per []string
	for i, t := range b.steal.per {
		per = append(per, fmt.Sprintf("cpu%d %.2fs", i, stealSeconds(t)))
	}
	ref := sorted(b.refMs)
	if len(ref) > 0 {
		b.logf("host: steal %.2fs over the timed phases (%s); reference kernel median %.2f ms (min %.2f, max %.2f, n=%d)",
			stealSeconds(b.steal.total), strings.Join(per, ", "), median(ref), ref[0], ref[len(ref)-1], len(ref))
	}
	var corr, raw []float64
	for _, s := range b.lat {
		if !s.traced {
			corr, raw = append(corr, s.corrMs), append(raw, s.rawMs)
		}
	}
	if len(corr) > 0 {
		b.logf("latency class: n=%d; corrected p50 %.3f ms, raw p50 %.3f ms; p90/p10 spread %.2fx; process CPU %.3f ms per request",
			len(corr), median(corr), median(raw), spread(corr), ratio(ms(b.cpu), float64(b.untraced)))
		var fifths []string
		for i := 0; i < 5; i++ {
			fifths = append(fifths, fmt.Sprintf("%.2f", median(corr[i*len(corr)/5:(i+1)*len(corr)/5])))
		}
		b.logf("latency class by fifth of the run, corrected medians in ms: %s", strings.Join(fifths, " "))
	}
	if lo, mid, hi, ok := workShares(b.lat); ok {
		b.logf("latency class by engine work: <0.5x median %.3f, 0.5-2x %.3f, >2x %.3f", lo, mid, hi)
	}
	b.logf("fail_share %.4f (%d of %d); %d latency-class replies left out as wholly stolen; throughput counted %g over %.3f s; setup reps %v s",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted, b.stolen, b.tputN, b.tputSec, b.setup)
}

// cleanup removes the run's tile stores and releases the tracer.
func (b *bench) cleanup() {
	b.tr.close()
	matches, _ := filepath.Glob(filepath.Join(b.workdir, fmt.Sprintf("%s-%d-*", b.workload, os.Getpid())))
	for _, m := range matches {
		_ = os.RemoveAll(m)
	}
}
