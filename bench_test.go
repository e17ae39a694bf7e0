// Benchmarks mirroring the paper's evaluation (Section 7): one bench family
// per table/figure, at container-friendly scale. The full parameter sweeps
// (paper cardinalities and resolutions) live in cmd/kdvbench; these benches
// pin the relative method ordering that each figure reports.
//
// Run with:  go test -bench=. -benchmem .
package quad_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/pca"
	"github.com/quadkdv/quad/internal/stats"
)

// benchN is the dataset cardinality shared by the render benches.
const benchN = 50000

// benchRes is the raster the render benches evaluate.
var benchRes = quad.Resolution{W: 32, H: 24}

// cache of constructed KDV instances keyed by configuration.
var (
	benchMu   sync.Mutex
	benchKDVs = map[string]*quad.KDV{}
	benchTaus = map[string]float64{}
	benchData = map[string][]float64{}
	benchDims = map[string]int{}
)

func benchKey(ds string, kern quad.Kernel, m quad.Method, n int) string {
	return fmt.Sprintf("%s/%s/%s/%d", ds, kern, m, n)
}

func getData(tb testing.TB, name string, n int) ([]float64, int) {
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s/%d", name, n)
	if d, ok := benchData[key]; ok {
		return d, benchDims[key]
	}
	pts, err := dataset.Generate(name, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	pts = dataset.First2D(pts)
	benchData[key] = pts.Coords
	benchDims[key] = pts.Dim
	return pts.Coords, pts.Dim
}

func getKDV(tb testing.TB, name string, kern quad.Kernel, m quad.Method, n int) *quad.KDV {
	coords, dim := getData(tb, name, n)
	benchMu.Lock()
	defer benchMu.Unlock()
	key := benchKey(name, kern, m, n)
	if k, ok := benchKDVs[key]; ok {
		return k
	}
	k, err := quad.New(coords, dim,
		quad.WithKernel(kern), quad.WithMethod(m), quad.WithZOrderGuarantee(0.01, 0.2))
	if err != nil {
		tb.Fatal(err)
	}
	benchKDVs[key] = k
	return k
}

func getTau(tb testing.TB, name string, kern quad.Kernel, n int) float64 {
	k := getKDV(tb, name, kern, quad.MethodQuadratic, n)
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s/%s/%d", name, kern, n)
	if tau, ok := benchTaus[key]; ok {
		return tau
	}
	mu, _, err := k.ThresholdStats(benchRes, 4, 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	benchTaus[key] = mu
	return mu
}

var epsBenchMethods = []struct {
	label  string
	method quad.Method
}{
	{"aKDE", quad.MethodMinMax},
	{"KARL", quad.MethodLinear},
	{"QUAD", quad.MethodQuadratic},
	{"Zorder", quad.MethodZOrder},
}

var tauBenchMethods = []struct {
	label  string
	method quad.Method
}{
	{"tKDC", quad.MethodMinMax},
	{"KARL", quad.MethodLinear},
	{"QUAD", quad.MethodQuadratic},
}

// BenchmarkFig14EpsKDV: εKDV render time per method (crime analogue,
// ε=0.01) — the Figure 14 series.
func BenchmarkFig14EpsKDV(b *testing.B) {
	for _, m := range epsBenchMethods {
		b.Run(m.label, func(b *testing.B) {
			k := getKDV(b, "crime", quad.Gaussian, m.method, benchN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderEps(benchRes, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15TauKDV: τKDV render time per method at τ=μ — Figure 15.
func BenchmarkFig15TauKDV(b *testing.B) {
	tau := getTau(b, "crime", quad.Gaussian, benchN)
	for _, m := range tauBenchMethods {
		b.Run(m.label, func(b *testing.B) {
			k := getKDV(b, "crime", quad.Gaussian, m.method, benchN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderTau(benchRes, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16Resolution: QUAD εKDV render across resolutions — the
// Figure 16 scaling series.
func BenchmarkFig16Resolution(b *testing.B) {
	for _, res := range []quad.Resolution{{W: 16, H: 12}, {W: 32, H: 24}, {W: 64, H: 48}, {W: 128, H: 96}} {
		b.Run(fmt.Sprintf("%dx%d", res.W, res.H), func(b *testing.B) {
			k := getKDV(b, "crime", quad.Gaussian, quad.MethodQuadratic, benchN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderEps(res, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17DatasetSize: QUAD εKDV render across hep cardinalities —
// the Figure 17 scaling series. Sizes are subsamples of ONE generated
// dataset (as the paper varies size "via sampling"), so the density
// structure and Scott bandwidth stay comparable across n.
func BenchmarkFig17DatasetSize(b *testing.B) {
	coords, dim := getData(b, "hep", 200000)
	full := geom.NewPoints(append([]float64(nil), coords...), dim)
	for _, n := range []int{25000, 50000, 100000, 200000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			sub := dataset.Subsample(full, n, 1)
			k, err := quad.New(sub.Clone().Coords, dim)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderEps(benchRes, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig18Refinement: per-pixel refinement cost of KARL vs QUAD on
// the densest region — the mechanism behind Figure 18's iteration counts.
func BenchmarkFig18Refinement(b *testing.B) {
	for _, m := range []struct {
		label  string
		method quad.Method
	}{{"KARL", quad.MethodLinear}, {"QUAD", quad.MethodQuadratic}} {
		b.Run(m.label, func(b *testing.B) {
			k := getKDV(b, "home", quad.Gaussian, m.method, benchN)
			q := []float64{25, 52} // inside the dense cooling-season mode
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Estimate(q, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig19Quality: εKDV render including the quality bookkeeping of
// Figure 19 (values retained for the comparison).
func BenchmarkFig19Quality(b *testing.B) {
	k := getKDV(b, "home", quad.Gaussian, quad.MethodQuadratic, benchN)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		dm, err := k.RenderEps(benchRes, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		mu, _ := dm.MuSigma()
		sink += mu
	}
	_ = sink
}

// BenchmarkFig20Progressive: progressive render under a fixed budget —
// Figure 20's time-ladder, reported as pixels evaluated per second.
func BenchmarkFig20Progressive(b *testing.B) {
	for _, budget := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond} {
		b.Run(budget.String(), func(b *testing.B) {
			k := getKDV(b, "home", quad.Gaussian, quad.MethodQuadratic, benchN)
			res := quad.Resolution{W: 128, H: 128}
			var evaluated int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := k.RenderProgressive(res, 0.01, budget, 0)
				if err != nil {
					b.Fatal(err)
				}
				evaluated += r.Evaluated
			}
			b.StopTimer()
			b.ReportMetric(float64(evaluated)/float64(b.N), "pixels/render")
		})
	}
}

// BenchmarkFig22OtherKernelsEps: εKDV for triangular and cosine kernels —
// Figure 22's series (KARL has no bounds here; aKDE vs QUAD).
func BenchmarkFig22OtherKernelsEps(b *testing.B) {
	for _, kern := range []quad.Kernel{quad.Triangular, quad.Cosine} {
		for _, m := range []struct {
			label  string
			method quad.Method
		}{{"aKDE", quad.MethodMinMax}, {"QUAD", quad.MethodQuadratic}} {
			b.Run(fmt.Sprintf("%s/%s", kern, m.label), func(b *testing.B) {
				k := getKDV(b, "crime", kern, m.method, benchN)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.RenderEps(benchRes, 0.01); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig23OtherKernelsTau: τKDV for triangular and cosine kernels —
// Figure 23's series (tKDC vs QUAD).
func BenchmarkFig23OtherKernelsTau(b *testing.B) {
	for _, kern := range []quad.Kernel{quad.Triangular, quad.Cosine} {
		tau := getTau(b, "crime", kern, benchN)
		for _, m := range []struct {
			label  string
			method quad.Method
		}{{"tKDC", quad.MethodMinMax}, {"QUAD", quad.MethodQuadratic}} {
			b.Run(fmt.Sprintf("%s/%s", kern, m.label), func(b *testing.B) {
				k := getKDV(b, "crime", kern, m.method, benchN)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.RenderTau(benchRes, tau); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig24Dimensionality: per-query εKDE cost vs dimensionality on
// PCA-projected hep vectors — Figure 24's throughput series (ns/op is the
// reciprocal of queries/sec).
func BenchmarkFig24Dimensionality(b *testing.B) {
	full := dataset.Hep(30000, 10, 1)
	model, err := pca.Fit(full)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{2, 4, 6, 8, 10} {
		proj, err := model.Project(full, d)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			label  string
			method quad.Method
		}{{"SCAN", quad.MethodExact}, {"QUAD", quad.MethodQuadratic}} {
			b.Run(fmt.Sprintf("d%d/%s", d, m.label), func(b *testing.B) {
				k, err := quad.New(proj.Coords, d, quad.WithMethod(m.method))
				if err != nil {
					b.Fatal(err)
				}
				q := proj.At(7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.Estimate(q, 0.01); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig27Exponential: εKDV and τKDV with the exponential kernel —
// the appendix 9.7 series.
func BenchmarkFig27Exponential(b *testing.B) {
	tau := getTau(b, "crime", quad.Exponential, benchN)
	for _, m := range []struct {
		label  string
		method quad.Method
	}{{"aKDE", quad.MethodMinMax}, {"QUAD", quad.MethodQuadratic}} {
		b.Run("eps/"+m.label, func(b *testing.B) {
			k := getKDV(b, "crime", quad.Exponential, m.method, benchN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderEps(benchRes, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("tau/"+m.label, func(b *testing.B) {
			k := getKDV(b, "crime", quad.Exponential, m.method, benchN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderTau(benchRes, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLeafSize: kd-tree leaf capacity sensitivity (DESIGN.md
// design-choice ablation).
func BenchmarkAblationLeafSize(b *testing.B) {
	coords, dim := getData(b, "crime", benchN)
	for _, leaf := range []int{8, 30, 128} {
		b.Run(fmt.Sprintf("leaf%d", leaf), func(b *testing.B) {
			k, err := quad.New(coords, dim, quad.WithLeafSize(leaf))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderEps(benchRes, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWorkers: render parallelism (the paper's future-work
// knob). The library default is GOMAXPROCS workers; w1 is the paper's
// single-threaded setting.
func BenchmarkAblationWorkers(b *testing.B) {
	coords, dim := getData(b, "crime", benchN)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			k, err := quad.New(coords, dim, quad.WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderEps(benchRes, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuild: kd-tree construction cost (offline stage of the
// Table 6 indexing methods).
func BenchmarkIndexBuild(b *testing.B) {
	coords, dim := getData(b, "crime", benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quad.New(coords, dim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointQuery: single-query latency, QUAD vs exact scan — the
// library's core primitive.
func BenchmarkPointQuery(b *testing.B) {
	q := []float64{50, 50}
	b.Run("QUAD", func(b *testing.B) {
		k := getKDV(b, "crime", quad.Gaussian, quad.MethodQuadratic, benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Estimate(q, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EXACT", func(b *testing.B) {
		k := getKDV(b, "crime", quad.Gaussian, quad.MethodExact, benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Density(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBallBounds: MBR-only vs ball-intersected node distance
// intervals (WithTightNodeBounds).
func BenchmarkAblationBallBounds(b *testing.B) {
	coords, dim := getData(b, "crime", benchN)
	for _, on := range []bool{false, true} {
		name := "mbr"
		if on {
			name = "mbr+ball"
		}
		b.Run(name, func(b *testing.B) {
			k, err := quad.New(coords, dim, quad.WithTightNodeBounds(on))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.RenderEps(benchRes, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassify: kernel density classification via bound racing vs
// computing both densities to high precision.
func BenchmarkClassify(b *testing.B) {
	coordsA, dim := getData(b, "crime", 20000)
	coordsB, _ := getData(b, "home", 20000)
	toPts := func(coords []float64) [][]float64 {
		out := make([][]float64, len(coords)/dim)
		for i := range out {
			out[i] = coords[i*dim : (i+1)*dim]
		}
		return out
	}
	c, err := quad.NewClassifier(map[string][][]float64{
		"crime": toPts(coordsA),
		"home":  toPts(coordsB),
	}, quad.Gaussian, 0)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{coordsA[0], coordsA[1]}
	b.Run("race", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Classify(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("densities", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.ClassDensities(q, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTangent: Gaussian lower-bound tangent-point strategies
// (the paper's Equation 3 mean vs midpoint vs endpoint) — DESIGN.md t*
// ablation.
func BenchmarkAblationTangent(b *testing.B) {
	coords, dim := getData(b, "crime", benchN)
	pts := geom.NewPoints(append([]float64(nil), coords...), dim)
	bw := stats.ScottsRule(pts, kernel.Gaussian)
	tree, err := kdtree.Build(pts, kdtree.Options{Gram: true})
	if err != nil {
		b.Fatal(err)
	}
	g, err := grid.ForDataset(grid.Resolution{W: benchRes.W, H: benchRes.H}, tree.Pts, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		choice bounds.TangentChoice
	}{{"mean", bounds.TangentMean}, {"midpoint", bounds.TangentMidpoint}, {"xmax", bounds.TangentXMax}} {
		b.Run(tc.name, func(b *testing.B) {
			ev, err := bounds.NewEvaluator(kernel.Gaussian, bw.Gamma, bw.Weight, bounds.Quadratic, dim)
			if err != nil {
				b.Fatal(err)
			}
			ev.SetTangentChoice(tc.choice)
			eng, err := engine.New(tree, ev)
			if err != nil {
				b.Fatal(err)
			}
			q := make([]float64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for y := 0; y < benchRes.H; y++ {
					for x := 0; x < benchRes.W; x++ {
						g.Query(x, y, q)
						eng.EvalEps(q, 0.01)
					}
				}
			}
		})
	}
}

// BenchmarkRender is the PR 2 acceptance benchmark: a full εKDV render
// (Gaussian, QUAD bounds, ε=0.05, 512×512, crime analogue at 30k points)
// with the tile-shared traversal (default tile size) against the per-pixel
// baseline (WithTileSize(1)). BENCH_PR2.json records the measured speedup
// and per-pixel node-evaluation reduction; regenerate it with `make bench`.
func BenchmarkRender(b *testing.B) {
	const (
		renderN   = 30000
		renderEps = 0.05
	)
	res := quad.Resolution{W: 512, H: 512}
	coords, dim := getData(b, "crime", renderN)
	for _, mode := range []struct {
		name string
		tile int
	}{{"tile", 0}, {"perpixel", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			k, err := quad.New(coords, dim,
				quad.WithKernel(quad.Gaussian),
				quad.WithMethod(quad.MethodQuadratic),
				quad.WithTileSize(mode.tile))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var st quad.RenderStats
			for i := 0; i < b.N; i++ {
				dm, s, err := k.RenderEpsStats(res, renderEps)
				if err != nil {
					b.Fatal(err)
				}
				dm.Release()
				st = s
			}
			b.ReportMetric(st.NodesPerPixel(), "nodes/px")
			b.ReportMetric(float64(st.SharedNodeEvals)/float64(st.Pixels), "shared/px")
		})
	}
}

// BenchmarkTelemetryOverhead is the PR 4 acceptance benchmark: the same
// εKDV render through the plain entry point (nil stats recorder — the
// disabled-telemetry hot path) and through the stats-collecting one. The
// two sub-bench times must stay within 2% of each other; BENCH_PR4.json
// records the measured delta (regenerate with `make bench`).
func BenchmarkTelemetryOverhead(b *testing.B) {
	const (
		renderN   = 30000
		renderEps = 0.05
	)
	res := quad.Resolution{W: 256, H: 256}
	coords, dim := getData(b, "crime", renderN)
	k, err := quad.New(coords, dim,
		quad.WithKernel(quad.Gaussian),
		quad.WithMethod(quad.MethodQuadratic))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("nostats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dm, err := k.RenderEps(res, renderEps)
			if err != nil {
				b.Fatal(err)
			}
			dm.Release()
		}
	})
	b.Run("stats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dm, _, err := k.RenderEpsStats(res, renderEps)
			if err != nil {
				b.Fatal(err)
			}
			dm.Release()
		}
	})
}
