package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/audit"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/trace"
)

// jsonCell is one measured render configuration in the -json report.
type jsonCell struct {
	Variant        string  `json:"variant"` // "eps" or "tau"
	Res            string  `json:"res"`
	Mode           string  `json:"mode"` // "tile" or "perpixel"
	ElapsedMS      float64 `json:"elapsed_ms"`
	NsPerPixel     float64 `json:"ns_per_pixel"`
	NodesPerPixel  float64 `json:"nodes_per_pixel"`
	NodesEvaluated int     `json:"nodes_evaluated"`
	SharedEvals    int     `json:"shared_node_evals"`
	LeafScans      int     `json:"leaf_scans"`
	Tiles          int     `json:"tiles"`
	TilesDecided   int     `json:"tiles_decided"`
}

// jsonReport is the BENCH_PR2.json schema: the tile-shared traversal's
// speedup and traversal-work reduction against the per-pixel baseline, for
// both query variants at two resolutions.
type jsonReport struct {
	Dataset  string     `json:"dataset"`
	N        int        `json:"n"`
	Kernel   string     `json:"kernel"`
	Method   string     `json:"method"`
	Eps      float64    `json:"eps"`
	TauSigma float64    `json:"tau_sigma"` // τ = μ + tau_sigma·σ
	Workers  int        `json:"workers"`
	TileSize int        `json:"tile_size"`
	Cells    []jsonCell `json:"cells"`
	// Speedups maps "variant/res" to elapsed(perpixel)/elapsed(tile);
	// NodeReductions maps the same keys to the per-pixel node-evaluation
	// ratio (per-pixel counters only — shared work is reported separately in
	// the cells).
	Speedups       map[string]float64 `json:"speedups"`
	NodeReductions map[string]float64 `json:"node_reductions"`
	// TracingOverhead measures the span-instrumented render entry points
	// under a disabled trace (plain context, nil *trace.Trace) against a
	// trace-carrying context. The disabled delta is the PR5 acceptance
	// number (must stay ≤ 2%): tracing must cost nothing when off.
	TracingOverhead *tracingOverhead `json:"tracing_overhead,omitempty"`
	// TileServing measures the /tiles serving tiers — cold engine build vs
	// warm-disk vs warm-memory on 512² tiles. The PR9 acceptance number is
	// DiskSpeedup (gated by -mintilespeedup).
	TileServing *tileServing `json:"tile_serving,omitempty"`
	// AuditOverhead measures the shadow-audit producer hook on the serving
	// path — render plus the sampling coin, pixel draw, and job submit — at
	// the production 1% fraction against the auditless render. The PR10
	// acceptance number is DeltaPct (must stay ≤ 2%).
	AuditOverhead *auditOverhead `json:"audit_overhead,omitempty"`
}

// auditOverhead compares the render-and-maybe-submit path (the exact hook
// the serve layer runs after each completed render) against the bare
// render, interleaved best-of-rounds. The forced side submits an audit on
// every round (fraction 1), bounding what a sampled round costs; the gated
// number is the production-fraction delta.
type auditOverhead struct {
	Res      string  `json:"res"`
	Rounds   int     `json:"rounds"`
	Fraction float64 `json:"fraction"`
	OffMS    float64 `json:"render_ms_audit_off"`
	OnMS     float64 `json:"render_ms_audit_on"`
	// DeltaPct is (on − off)/off × 100 at the production fraction — the
	// gated number.
	DeltaPct float64 `json:"delta_pct"`
	// ForcedMS audits every round; ForcedDeltaPct is informational.
	ForcedMS       float64 `json:"render_ms_audit_forced"`
	ForcedDeltaPct float64 `json:"forced_delta_pct"`
}

// auditHook replicates the serve layer's producer hook: flip the sampling
// coin, and when sampled reconstruct the render's grid, draw the audit
// pixels, and submit the job with the exact-oracle binding. Everything the
// request path pays is inside this function; the oracle itself runs on the
// auditor's background pool.
func auditHook(a *audit.Auditor, k *quad.KDV, dm *quad.DensityMap, eps float64) error {
	if !a.ShouldAudit() {
		return nil
	}
	g, err := grid.New(grid.Resolution{W: dm.Res.W, H: dm.Res.H},
		geom.Rect{Min: dm.WindowMin[:], Max: dm.WindowMax[:]})
	if err != nil {
		return err
	}
	idx := a.SamplePixels(len(dm.Values))
	samples := make([]audit.Sample, 0, len(idx))
	q := make([]float64, 2)
	scale := 0.0
	for _, v := range dm.Values {
		if v > scale {
			scale = v
		}
	}
	for _, i := range idx {
		px, py := i%dm.Res.W, i/dm.Res.W
		g.Query(px, py, q)
		samples = append(samples, audit.Sample{
			X: px, Y: py, Q: [2]float64{q[0], q[1]}, Value: dm.Values[i],
		})
	}
	a.Submit(audit.Job{
		Endpoint: "render",
		Dataset:  "crime",
		Method:   quad.MethodQuadratic.String(),
		Kind:     audit.KindEps,
		Eps:      eps,
		Scale:    scale,
		Samples:  samples,
		Exact: func(q []float64) float64 {
			d, err := k.Density(q)
			if err != nil {
				return math.NaN()
			}
			return d
		},
	})
	return nil
}

// measureAuditOverhead interleaves rounds of the three paths — bare render,
// render + production-fraction hook, render + forced hook — and keeps each
// side's best time.
func measureAuditOverhead(k *quad.KDV, res quad.Resolution, eps float64, rounds int) (*auditOverhead, error) {
	const fraction = 0.01
	sampled := audit.New(audit.Config{Fraction: fraction, Seed: 1, Registry: telemetry.NewRegistry()})
	forced := audit.New(audit.Config{Fraction: 1, Seed: 1, Registry: telemetry.NewRegistry()})
	defer sampled.Close()
	defer forced.Close()

	best := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	o := &auditOverhead{Res: res.String(), Rounds: rounds, Fraction: fraction}
	render := func(a *audit.Auditor, slot *float64) error {
		start := time.Now()
		dm, err := k.RenderEps(res, eps)
		if err != nil {
			return err
		}
		if a != nil {
			if err := auditHook(a, k, dm, eps); err != nil {
				dm.Release()
				return err
			}
		}
		elapsed := time.Since(start)
		dm.Release()
		*slot = best(*slot, ms(elapsed))
		return nil
	}
	sides := []func() error{
		func() error { return render(nil, &o.OffMS) },
		func() error { return render(sampled, &o.OnMS) },
		func() error { return render(forced, &o.ForcedMS) },
	}
	// Rotate which side goes first each round — see measureTracingOverhead
	// for why a fixed order biases the deltas under sustained load.
	for i := 0; i < rounds; i++ {
		for j := range sides {
			if err := sides[(i+j)%len(sides)](); err != nil {
				return nil, err
			}
		}
	}
	o.DeltaPct = (o.OnMS - o.OffMS) / o.OffMS * 100
	o.ForcedDeltaPct = (o.ForcedMS - o.OffMS) / o.OffMS * 100
	return o, nil
}

// tracingOverhead compares three sides of an identical render: Render
// under context.Background() (the PR4 shape), under a plain request
// context (tracing present but disabled — the default serving path), and
// under a trace-carrying context (every span recorded). The first two run
// the same code, so their delta is the measurement's own noise.
// Best-of-rounds on each side, interleaved, so scheduler noise hits all
// three alike.
type tracingOverhead struct {
	Res      string  `json:"res"`
	Rounds   int     `json:"rounds"`
	StatsMS  float64 `json:"render_ms_stats"`
	OffMS    float64 `json:"render_ms_tracing_off"`
	TracedMS float64 `json:"render_ms_traced"`
	// OffDeltaPct is (off − stats)/stats × 100: what the tracing plumbing
	// costs when no trace is attached. This is the gated number.
	OffDeltaPct float64 `json:"off_delta_pct"`
	// TracedDeltaPct is (traced − stats)/stats × 100: the price of a fully
	// recorded trace. Informational, not gated.
	TracedDeltaPct float64 `json:"traced_delta_pct"`
}

// measureTracingOverhead interleaves rounds of the three paths and keeps
// each side's best time.
func measureTracingOverhead(k *quad.KDV, res quad.Resolution, eps float64, rounds int) (*tracingOverhead, error) {
	best := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	o := &tracingOverhead{Res: res.String(), Rounds: rounds}
	req := quad.Request{Res: res, Eps: eps}
	plain := context.Background()
	sides := []func() error{
		func() error {
			start := time.Now()
			r, err := k.Render(context.Background(), req)
			if err != nil {
				return err
			}
			r.Density.Release()
			o.StatsMS = best(o.StatsMS, ms(time.Since(start)))
			return nil
		},
		func() error {
			start := time.Now()
			r, err := k.Render(plain, req)
			if err != nil {
				return err
			}
			r.Density.Release()
			o.OffMS = best(o.OffMS, ms(time.Since(start)))
			return nil
		},
		func() error {
			traced := trace.NewContext(context.Background(), trace.New())
			start := time.Now()
			r, err := k.Render(traced, req)
			if err != nil {
				return err
			}
			r.Density.Release()
			o.TracedMS = best(o.TracedMS, ms(time.Since(start)))
			return nil
		},
	}
	// Rotate which side goes first each round: sustained load ramps the
	// CPU's thermal/frequency state within a round, so a fixed order would
	// systematically favor whichever side runs on the cooler core — an
	// apparent overhead of several percent with no code difference at all.
	for i := 0; i < rounds; i++ {
		for j := range sides {
			if err := sides[(i+j)%len(sides)](); err != nil {
				return nil, err
			}
		}
	}
	o.OffDeltaPct = (o.OffMS - o.StatsMS) / o.StatsMS * 100
	o.TracedDeltaPct = (o.TracedMS - o.StatsMS) / o.StatsMS * 100
	return o, nil
}

// runJSONBench measures tile-shared vs per-pixel rendering and writes the
// report to path. It is the artifact generator behind `make bench`.
func runJSONBench(path string, seed int64, n int) error {
	const eps = 0.05
	const tauSigma = 1.0
	pts, err := dataset.Generate2D("crime", n, seed)
	if err != nil {
		return err
	}

	workers := runtime.GOMAXPROCS(0)
	build := func(tile int) (*quad.KDV, error) {
		return quad.New(pts.Coords, pts.Dim,
			quad.WithKernel(quad.Gaussian),
			quad.WithMethod(quad.MethodQuadratic),
			quad.WithWorkers(workers),
			quad.WithTileSize(tile))
	}
	tiled, err := build(0)
	if err != nil {
		return err
	}
	perPixel, err := build(1)
	if err != nil {
		return err
	}

	rep := jsonReport{
		Dataset:        "crime",
		N:              pts.Len(),
		Kernel:         quad.Gaussian.String(),
		Method:         quad.MethodQuadratic.String(),
		Eps:            eps,
		TauSigma:       tauSigma,
		Workers:        workers,
		TileSize:       16,
		Speedups:       map[string]float64{},
		NodeReductions: map[string]float64{},
	}
	for _, res := range []quad.Resolution{{W: 256, H: 256}, {W: 512, H: 512}} {
		// τ from the map statistics, as the paper's thresholds are defined.
		mu, sigma, err := tiled.ThresholdStatsCtx(context.Background(), res, 8, 0.05)
		if err != nil {
			return err
		}
		tau := mu + tauSigma*sigma
		for _, variant := range []string{"eps", "tau"} {
			var cells [2]jsonCell
			for i, mode := range []struct {
				name string
				k    *quad.KDV
			}{{"tile", tiled}, {"perpixel", perPixel}} {
				// Best-of-rounds wall clock, like the overhead measurements:
				// a single render's timing wobbles ±15% with the machine's
				// load and frequency state, and the -minspeedup gate reads
				// these cells. The traversal counters are deterministic for a
				// fixed seed, so any round's stats are THE stats.
				const cellRounds = 3
				var st quad.RenderStats
				var elapsed time.Duration
				req := quad.Request{Res: res, Eps: eps}
				if variant == "tau" {
					req = quad.Request{Variant: quad.TauKDV, Res: res, Tau: tau}
				}
				for r := 0; r < cellRounds; r++ {
					start := time.Now()
					out, err := mode.k.Render(context.Background(), req)
					if err != nil {
						return err
					}
					if out.Density != nil {
						out.Density.Release()
					} else {
						out.Hot.Release()
					}
					st = out.Stats
					if d := time.Since(start); r == 0 || d < elapsed {
						elapsed = d
					}
				}
				px := res.W * res.H
				cells[i] = jsonCell{
					Variant:        variant,
					Res:            res.String(),
					Mode:           mode.name,
					ElapsedMS:      float64(elapsed.Microseconds()) / 1e3,
					NsPerPixel:     float64(elapsed.Nanoseconds()) / float64(px),
					NodesPerPixel:  st.NodesPerPixel(),
					NodesEvaluated: st.NodesEvaluated,
					SharedEvals:    st.SharedNodeEvals,
					LeafScans:      st.LeafScans,
					Tiles:          st.Tiles,
					TilesDecided:   st.TilesDecided,
				}
				fmt.Printf("%-4s %-9s %-9s %10.1f ms  %8.1f ns/px  %7.2f nodes/px\n",
					variant, res, mode.name, cells[i].ElapsedMS, cells[i].NsPerPixel, cells[i].NodesPerPixel)
			}
			key := fmt.Sprintf("%s/%s", variant, res)
			if cells[0].ElapsedMS > 0 {
				rep.Speedups[key] = cells[1].ElapsedMS / cells[0].ElapsedMS
			}
			if cells[0].NodesEvaluated > 0 {
				rep.NodeReductions[key] = float64(cells[1].NodesEvaluated) / float64(cells[0].NodesEvaluated)
			}
			rep.Cells = append(rep.Cells, cells[:]...)
		}
	}
	// 6 rounds: the untraced sides run identical machine code, so the true
	// delta is ~0 and best-of needs enough samples for scheduler noise —
	// observed at ±5% per round on the bench hosts — to wash out of a
	// 2%-budget measurement.
	tro, err := measureTracingOverhead(tiled, quad.Resolution{W: 512, H: 512}, eps, 6)
	if err != nil {
		return err
	}
	rep.TracingOverhead = tro
	fmt.Printf("tracing overhead @ %s: stats %.1f ms, off %.1f ms (%+.2f%%), traced %.1f ms (%+.2f%%)\n",
		tro.Res, tro.StatsMS, tro.OffMS, tro.OffDeltaPct, tro.TracedMS, tro.TracedDeltaPct)
	ts, err := measureTileServing(pts, workers, eps)
	if err != nil {
		return err
	}
	rep.TileServing = ts
	fmt.Printf("tile serving @ %d×%d²: cold %.1f ms, disk %.1f ms (%.0fx), memory %.1f ms (%.0fx)\n",
		ts.Tiles, ts.TileSize, ts.ColdBuildMS, ts.WarmDiskMS, ts.DiskSpeedup, ts.WarmMemoryMS, ts.MemorySpeedup)
	ao, err := measureAuditOverhead(tiled, quad.Resolution{W: 512, H: 512}, eps, 6)
	if err != nil {
		return err
	}
	rep.AuditOverhead = ao
	fmt.Printf("audit overhead @ %s: off %.1f ms, on@%.0f%% %.1f ms (%+.2f%%), forced %.1f ms (%+.2f%%)\n",
		ao.Res, ao.OffMS, ao.Fraction*100, ao.OnMS, ao.DeltaPct, ao.ForcedMS, ao.ForcedDeltaPct)

	if err := writeJSON(path, &rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeJSON writes v pretty-printed with a trailing newline, the artifact
// format of the checked-in BENCH_*.json baselines.
func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
