package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/pca"
	"github.com/quadkdv/quad/internal/stats"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(c *Config) error
}

// Experiments returns the registry of all reproducible artifacts, in paper
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"datasets", "Table 5: dataset analogues", RunDatasets},
		{"fig2", "Figure 2: exact vs εKDV vs τKDV color maps", RunFig2},
		{"fig14", "Figure 14: εKDV response time vs ε", RunFig14},
		{"fig15", "Figure 15: τKDV response time vs τ", RunFig15},
		{"fig16", "Figure 16: εKDV response time vs resolution", RunFig16},
		{"fig17", "Figure 17: response time vs dataset size (hep)", RunFig17},
		{"fig18", "Figure 18: bound value vs iteration (KARL vs QUAD)", RunFig18},
		{"fig19", "Figure 19: εKDV quality across methods", RunFig19},
		{"fig20", "Figure 20: progressive avg relative error vs time", RunFig20},
		{"fig21", "Figure 21: QUAD progressive maps at five timestamps", RunFig21},
		{"fig22", "Figure 22: εKDV time, triangular & cosine kernels", RunFig22},
		{"fig23", "Figure 23: τKDV time, triangular & cosine kernels", RunFig23},
		{"fig24", "Figure 24: KDE throughput vs dimensionality", RunFig24},
		{"fig27", "Figure 27: exponential-kernel εKDV and τKDV", RunFig27},
		{"tightness", "Ablation: root-bound tightness distribution", RunTightness},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// epsMethods are the εKDV competitors of Figure 14 (Table 6).
var epsMethods = []struct {
	Label  string
	Method quad.Method
}{
	{"aKDE", quad.MethodMinMax},
	{"KARL", quad.MethodLinear},
	{"QUAD", quad.MethodQuadratic},
	{"Z-order", quad.MethodZOrder},
}

// tauMethods are the τKDV competitors of Figure 15 (Table 6).
var tauMethods = []struct {
	Label  string
	Method quad.Method
}{
	{"tKDC", quad.MethodMinMax},
	{"KARL", quad.MethodLinear},
	{"QUAD", quad.MethodQuadratic},
}

// RunDatasets prints the Table 5 analogue inventory.
func RunDatasets(c *Config) error {
	t := Table{
		Title:   "Table 5: dataset analogues (synthetic, seeded)",
		Headers: []string{"name", "n", "dim(2d-proj)", "gamma(Scott)", "weight"},
	}
	for _, name := range dataset.Names() {
		d, err := c.LoadDataset(name)
		if err != nil {
			return err
		}
		bw := stats.ScottsRule(d.Pts, kernel.Gaussian)
		t.Add(name, fmt.Sprintf("%d", d.N), "2",
			fmt.Sprintf("%.4g", bw.Gamma), fmt.Sprintf("%.3g", bw.Weight))
	}
	c.Emit(&t)
	return nil
}

// RunFig2 renders the three map styles of Figure 2 as PNGs.
func RunFig2(c *Config) error {
	if c.OutDir == "" {
		fmt.Fprintln(c.Out, "fig2: set -out DIR to write PNGs; skipping")
		return nil
	}
	d, err := c.LoadDataset("home")
	if err != nil {
		return err
	}
	k, err := d.Build(quad.Gaussian, quad.MethodQuadratic, 0.01)
	if err != nil {
		return err
	}
	res := quad.Resolution{W: c.Res.W, H: c.Res.H}
	exact, err := k.RenderEps(res, 0) // ε=0 refines to exact
	if err != nil {
		return err
	}
	if err := exact.SavePNG(filepath.Join(c.OutDir, "fig2a_exact.png"), true); err != nil {
		return err
	}
	eps, err := k.RenderEps(res, 0.01)
	if err != nil {
		return err
	}
	if err := eps.SavePNG(filepath.Join(c.OutDir, "fig2b_epskdv.png"), true); err != nil {
		return err
	}
	mu, _ := eps.MuSigma()
	tau, err := k.RenderTau(res, mu)
	if err != nil {
		return err
	}
	if err := tau.SavePNG(filepath.Join(c.OutDir, "fig2c_taukdv.png")); err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "fig2: wrote fig2a_exact.png, fig2b_epskdv.png, fig2c_taukdv.png (τ=μ=%.4g, hot %.1f%%)\n",
		mu, tau.HotFraction()*100)
	return nil
}

// RunFig14 times εKDV across ε for every dataset and method.
func RunFig14(c *Config) error {
	for _, name := range dataset.Names() {
		d, err := c.LoadDataset(name)
		if err != nil {
			return err
		}
		t := Table{
			Title:   fmt.Sprintf("Figure 14 (%s, n=%d, %s): εKDV seconds vs ε", name, d.N, c.Res),
			Headers: append([]string{"method"}, formatFloats(c.Eps)...),
		}
		for _, m := range epsMethods {
			row := []string{m.Label}
			for _, eps := range c.Eps {
				k, err := d.Build(quad.Gaussian, m.Method, eps)
				if err != nil {
					return err
				}
				cell, err := TimeEps(k, d.Pts, c.Res, eps, c.CellTimeout)
				if err != nil {
					return err
				}
				row = append(row, cell.String())
			}
			t.Add(row...)
		}
		c.Emit(&t)
	}
	return nil
}

// RunFig15 times τKDV across the τ ladder for every dataset and method.
func RunFig15(c *Config) error {
	for _, name := range dataset.Names() {
		d, err := c.LoadDataset(name)
		if err != nil {
			return err
		}
		mu, sigma, err := c.MuSigma(d)
		if err != nil {
			return err
		}
		taus := stats.Thresholds(mu, sigma, c.TauMultiples)
		t := Table{
			Title:   fmt.Sprintf("Figure 15 (%s, μ=%.3g σ=%.3g): τKDV seconds vs τ", name, mu, sigma),
			Headers: append([]string{"method"}, tauHeaders(c.TauMultiples)...),
		}
		for _, m := range tauMethods {
			row := []string{m.Label}
			for _, tau := range taus {
				k, err := d.Build(quad.Gaussian, m.Method, 0.01)
				if err != nil {
					return err
				}
				cell, err := TimeTau(k, d.Pts, c.Res, tau, c.CellTimeout)
				if err != nil {
					return err
				}
				row = append(row, cell.String())
			}
			t.Add(row...)
		}
		c.Emit(&t)
	}
	return nil
}

// RunFig16 times εKDV (ε=0.01) across resolutions.
func RunFig16(c *Config) error {
	for _, name := range dataset.Names() {
		d, err := c.LoadDataset(name)
		if err != nil {
			return err
		}
		headers := []string{"method"}
		for _, r := range c.Resolutions {
			headers = append(headers, r.String())
		}
		t := Table{
			Title:   fmt.Sprintf("Figure 16 (%s, ε=0.01): εKDV seconds vs resolution", name),
			Headers: headers,
		}
		for _, m := range epsMethods {
			row := []string{m.Label}
			k, err := d.Build(quad.Gaussian, m.Method, 0.01)
			if err != nil {
				return err
			}
			for _, r := range c.Resolutions {
				cell, err := TimeEps(k, d.Pts, r, 0.01, c.CellTimeout)
				if err != nil {
					return err
				}
				row = append(row, cell.String())
			}
			t.Add(row...)
		}
		c.Emit(&t)
	}
	return nil
}

// RunFig17 times εKDV and τKDV on hep across cardinalities.
func RunFig17(c *Config) error {
	full, err := dataset.Generate2D("hep", maxInt(c.HepSizes), c.Seed)
	if err != nil {
		return err
	}
	headers := []string{"method"}
	for _, n := range c.HepSizes {
		headers = append(headers, fmt.Sprintf("%dk", n/1000))
	}
	tEps := Table{Title: fmt.Sprintf("Figure 17a (hep, ε=0.01, %s): εKDV seconds vs n", c.Res), Headers: headers}
	tTau := Table{Title: "Figure 17b (hep, τ=μ): τKDV seconds vs n", Headers: headers}

	type prepared struct {
		d   *DS
		tau float64
	}
	preps := make([]prepared, len(c.HepSizes))
	for i, n := range c.HepSizes {
		sub := dataset.Subsample(full, n, c.Seed+int64(i))
		d := &DS{Name: "hep", Pts: sub, N: sub.Len()}
		mu, _, err := c.MuSigma(d)
		if err != nil {
			return err
		}
		preps[i] = prepared{d: d, tau: mu}
	}
	for _, m := range epsMethods {
		row := []string{m.Label}
		for _, p := range preps {
			k, err := p.d.Build(quad.Gaussian, m.Method, 0.01)
			if err != nil {
				return err
			}
			cell, err := TimeEps(k, p.d.Pts, c.Res, 0.01, c.CellTimeout)
			if err != nil {
				return err
			}
			row = append(row, cell.String())
		}
		tEps.Add(row...)
	}
	for _, m := range tauMethods {
		row := []string{m.Label}
		for _, p := range preps {
			k, err := p.d.Build(quad.Gaussian, m.Method, 0.01)
			if err != nil {
				return err
			}
			cell, err := TimeTau(k, p.d.Pts, c.Res, p.tau, c.CellTimeout)
			if err != nil {
				return err
			}
			row = append(row, cell.String())
		}
		tTau.Add(row...)
	}
	c.Emit(&tEps)
	c.Emit(&tTau)
	return nil
}

// RunFig18 traces KARL vs QUAD aggregate bounds per iteration on the
// highest-density home pixel.
func RunFig18(c *Config) error {
	d, err := c.LoadDataset("home")
	if err != nil {
		return err
	}
	kq, err := d.Build(quad.Gaussian, quad.MethodQuadratic, 0.01)
	if err != nil {
		return err
	}
	q, err := DensestPixel(kq, d.Pts, c.Res)
	if err != nil {
		return err
	}
	bw := stats.ScottsRule(d.Pts, kernel.Gaussian)
	tree, err := buildFlat(d.Pts)
	if err != nil {
		return err
	}
	trace := func(m bounds.Method) ([]engine.TracePoint, error) {
		ev, err := bounds.NewEvaluator(kernel.Gaussian, bw.Gamma, bw.Weight, m, 2)
		if err != nil {
			return nil, err
		}
		e, err := engine.NewFlat(tree, ev)
		if err != nil {
			return nil, err
		}
		return e.BoundTrace(q, 0.01), nil
	}
	karl, err := trace(bounds.Linear)
	if err != nil {
		return err
	}
	quadTrace, err := trace(bounds.Quadratic)
	if err != nil {
		return err
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 18 (home, densest pixel, ε=0.01): bounds per iteration — QUAD stops at %d, KARL at %d", len(quadTrace)-1, len(karl)-1),
		Headers: []string{"iter", "LB_KARL", "UB_KARL", "LB_QUAD", "UB_QUAD"},
	}
	steps := maxInt([]int{len(karl), len(quadTrace)})
	stride := 1 + steps/25
	for i := 0; i < steps; i += stride {
		row := []string{fmt.Sprintf("%d", i)}
		row = append(row, traceCells(karl, i)...)
		row = append(row, traceCells(quadTrace, i)...)
		t.Add(row...)
	}
	c.Emit(&t)
	return nil
}

func traceCells(tr []engine.TracePoint, i int) []string {
	if i >= len(tr) {
		return []string{"-", "-"}
	}
	return []string{fmt.Sprintf("%.5g", tr[i].LB), fmt.Sprintf("%.5g", tr[i].UB)}
}

// RunFig19 compares εKDV value quality across methods against the exact
// reference.
func RunFig19(c *Config) error {
	d, err := c.LoadDataset("home")
	if err != nil {
		return err
	}
	res := c.Res
	if res.Pixels() > 160*120 {
		res.W, res.H = 160, 120 // exact reference cost guard
	}
	ek, err := d.Build(quad.Gaussian, quad.MethodExact, 0)
	if err != nil {
		return err
	}
	exact, err := RenderValues(ek, res, 0)
	if err != nil {
		return err
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 19 (home, ε=0.01, %s): value quality vs exact", res),
		Headers: []string{"method", "avg rel err", "max rel err"},
	}
	for _, m := range epsMethods {
		k, err := d.Build(quad.Gaussian, m.Method, 0.01)
		if err != nil {
			return err
		}
		vals, err := RenderValues(k, res, 0.01)
		if err != nil {
			return err
		}
		qual, err := MeasureQuality(vals, exact)
		if err != nil {
			return err
		}
		t.Add(m.Label, fmt.Sprintf("%.2e", qual.Avg), fmt.Sprintf("%.2e", qual.Max))
	}
	c.Emit(&t)
	return nil
}

// RunFig20 measures progressive-framework quality across time budgets for
// every method.
func RunFig20(c *Config) error {
	d, err := c.LoadDataset("home")
	if err != nil {
		return err
	}
	kq, err := d.Build(quad.Gaussian, quad.MethodQuadratic, 0.01)
	if err != nil {
		return err
	}
	res := quad.Resolution{W: c.Res.W, H: c.Res.H}
	refRun, err := kq.Render(context.Background(), quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.001})
	if err != nil {
		return err
	}
	ref := refRun.Density.Values
	// Relative error is floored at 1e-6 of the peak density so empty-region
	// pixels (F in the deep kernel tail) do not dominate the average; see
	// stats.FlooredAvgRelativeError.
	var peak float64
	for _, v := range ref {
		if v > peak {
			peak = v
		}
	}
	floor := 1e-6 * peak

	headers := []string{"method"}
	for _, b := range c.Budgets {
		headers = append(headers, b.String())
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 20 (home, %s): progressive avg relative error vs time budget", c.Res),
		Headers: headers,
	}
	methods := append([]struct {
		Label  string
		Method quad.Method
	}{{"EXACT", quad.MethodExact}}, epsMethods...)
	for _, m := range methods {
		k, err := d.Build(quad.Gaussian, m.Method, 0.01)
		if err != nil {
			return err
		}
		row := []string{m.Label}
		for _, b := range c.Budgets {
			r, err := k.Render(context.Background(), quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.01, Budget: b})
			if err != nil {
				return err
			}
			avg, err := stats.FlooredAvgRelativeError(r.Density.Values, ref, floor)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.3g", avg))
		}
		t.Add(row...)
	}
	c.Emit(&t)
	return nil
}

// RunFig21 writes QUAD progressive snapshots at five budgets.
func RunFig21(c *Config) error {
	if c.OutDir == "" {
		fmt.Fprintln(c.Out, "fig21: set -out DIR to write PNGs; skipping")
		return nil
	}
	d, err := c.LoadDataset("home")
	if err != nil {
		return err
	}
	k, err := d.Build(quad.Gaussian, quad.MethodQuadratic, 0.01)
	if err != nil {
		return err
	}
	res := quad.Resolution{W: c.Res.W, H: c.Res.H}
	budgets := []time.Duration{20 * time.Millisecond, 50 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second}
	for _, b := range budgets {
		r, err := k.Render(context.Background(), quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.01, Budget: b})
		if err != nil {
			return err
		}
		path := filepath.Join(c.OutDir, fmt.Sprintf("fig21_t%s.png", b))
		if err := r.Density.SavePNG(path, true); err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "fig21: t=%-8s evaluated %6d/%d pixels → %s\n",
			b, r.Evaluated, res.W*res.H, path)
	}
	return nil
}

// runOtherKernelEps is shared by Figures 22 and 27a-b.
func runOtherKernelEps(c *Config, kern quad.Kernel, names []string) error {
	for _, name := range names {
		d, err := c.LoadDataset(name)
		if err != nil {
			return err
		}
		t := Table{
			Title:   fmt.Sprintf("%s kernel (%s): εKDV seconds vs ε", kern, name),
			Headers: append([]string{"method"}, formatFloats(c.Eps)...),
		}
		for _, m := range epsMethods {
			if m.Method == quad.MethodLinear {
				continue // KARL has no O(d) bounds for these kernels (Section 5.1)
			}
			row := []string{m.Label}
			for _, eps := range c.Eps {
				k, err := d.Build(kern, m.Method, eps)
				if err != nil {
					return err
				}
				cell, err := TimeEps(k, d.Pts, c.Res, eps, c.CellTimeout)
				if err != nil {
					return err
				}
				row = append(row, cell.String())
			}
			t.Add(row...)
		}
		c.Emit(&t)
	}
	return nil
}

// runOtherKernelTau is shared by Figures 23 and 27c-d.
func runOtherKernelTau(c *Config, kern quad.Kernel, names []string) error {
	for _, name := range names {
		d, err := c.LoadDataset(name)
		if err != nil {
			return err
		}
		kq, err := d.Build(kern, quad.MethodQuadratic, 0.01)
		if err != nil {
			return err
		}
		stride := 1 + c.Res.Pixels()/4096
		mu, sigma, err := kq.ThresholdStatsCtx(context.Background(), quad.Resolution{W: c.Res.W, H: c.Res.H}, stride, 0.01)
		if err != nil {
			return err
		}
		taus := stats.Thresholds(mu, sigma, c.TauMultiples)
		t := Table{
			Title:   fmt.Sprintf("%s kernel (%s, μ=%.3g σ=%.3g): τKDV seconds vs τ", kern, name, mu, sigma),
			Headers: append([]string{"method"}, tauHeaders(c.TauMultiples)...),
		}
		for _, m := range tauMethods {
			if m.Method == quad.MethodLinear {
				continue
			}
			row := []string{m.Label}
			for _, tau := range taus {
				k, err := d.Build(kern, m.Method, 0.01)
				if err != nil {
					return err
				}
				cell, err := TimeTau(k, d.Pts, c.Res, tau, c.CellTimeout)
				if err != nil {
					return err
				}
				row = append(row, cell.String())
			}
			t.Add(row...)
		}
		c.Emit(&t)
	}
	return nil
}

// RunFig22 measures εKDV for triangular and cosine kernels on crime & hep.
func RunFig22(c *Config) error {
	if err := runOtherKernelEps(c, quad.Triangular, []string{"crime", "hep"}); err != nil {
		return err
	}
	return runOtherKernelEps(c, quad.Cosine, []string{"crime", "hep"})
}

// RunFig23 measures τKDV for triangular and cosine kernels on crime & hep.
func RunFig23(c *Config) error {
	if err := runOtherKernelTau(c, quad.Triangular, []string{"crime", "hep"}); err != nil {
		return err
	}
	return runOtherKernelTau(c, quad.Cosine, []string{"crime", "hep"})
}

// RunFig24 measures general-KDE throughput (queries/sec) vs dimensionality
// on PCA-projected home and hep analogues.
func RunFig24(c *Config) error {
	for _, name := range []string{"home", "hep"} {
		n := 0
		if c.Sizes != nil {
			n = c.Sizes[name]
		}
		fullPts, err := dataset.Generate(name, n, c.Seed)
		if err != nil {
			return err
		}
		// home is natively 2-d; lift it by replicating noise-augmented
		// channels so the PCA sweep has 10 source dimensions, mirroring the
		// paper's use of the dataset's full attribute set.
		src := fullPts
		if src.Dim < maxInt(c.Dims) {
			src = liftDims(src, maxInt(c.Dims), c.Seed)
		}
		model, err := pca.Fit(src)
		if err != nil {
			return err
		}
		headers := []string{"method"}
		for _, dim := range c.Dims {
			headers = append(headers, fmt.Sprintf("d=%d", dim))
		}
		t := Table{
			Title:   fmt.Sprintf("Figure 24 (%s, Gaussian, ε=0.01): throughput queries/sec vs dimensionality", name),
			Headers: headers,
		}
		methods := []struct {
			Label  string
			Method quad.Method
		}{
			{"SCAN", quad.MethodExact},
			{"aKDE", quad.MethodMinMax},
			{"KARL", quad.MethodLinear},
			{"QUAD", quad.MethodQuadratic},
		}
		const queries = 64
		for _, m := range methods {
			row := []string{m.Label}
			for _, dim := range c.Dims {
				proj, err := model.Project(src, dim)
				if err != nil {
					return err
				}
				k, err := quad.New(proj.Coords, dim, quad.WithMethod(m.Method))
				if err != nil {
					return err
				}
				qs := dataset.Subsample(proj, queries, c.Seed+99)
				start := time.Now()
				count := 0
				deadline := start.Add(c.CellTimeout)
				for i := 0; i < qs.Len(); i++ {
					if _, err := k.Estimate(qs.At(i), 0.01); err != nil {
						return err
					}
					count++
					if time.Now().After(deadline) {
						break
					}
				}
				qps := float64(count) / time.Since(start).Seconds()
				row = append(row, fmt.Sprintf("%.3g", qps))
			}
			t.Add(row...)
		}
		c.Emit(&t)
	}
	return nil
}

// liftDims pads a dataset with correlated noise channels up to dim
// dimensions so the PCA sweep has material to project: channel j beyond the
// native ones is a scaled copy of a native channel plus Gaussian noise.
func liftDims(pts geom.Points, dim int, seed int64) geom.Points {
	if pts.Dim >= dim {
		return pts
	}
	rng := rand.New(rand.NewSource(seed + 1234))
	n := pts.Len()
	coords := make([]float64, 0, n*dim)
	for i := 0; i < n; i++ {
		p := pts.At(i)
		coords = append(coords, p...)
		for j := pts.Dim; j < dim; j++ {
			base := p[j%pts.Dim]
			coords = append(coords, 0.6*base+rng.NormFloat64())
		}
	}
	return geom.NewPoints(coords, dim)
}

// RunFig27 measures the exponential kernel (appendix 9.7).
func RunFig27(c *Config) error {
	if err := runOtherKernelEps(c, quad.Exponential, []string{"crime", "hep"}); err != nil {
		return err
	}
	return runOtherKernelTau(c, quad.Exponential, []string{"crime", "hep"})
}

// RunTightness reports the distribution of per-node bound gaps
// (UB−LB)/(w·|P|) across methods, measured on mid-level index nodes
// (64–1024 points) where the bounding intervals are narrow enough for the
// envelope shape to matter — the ablation behind Section 7.3. It also
// reports the average εKDV refinement work (points scanned per pixel) as
// the end-to-end consequence.
func RunTightness(c *Config) error {
	d, err := c.LoadDataset("crime")
	if err != nil {
		return err
	}
	bw := stats.ScottsRule(d.Pts, kernel.Gaussian)
	tree, err := buildFlat(d.Pts)
	if err != nil {
		return err
	}
	t := Table{
		Title:   "Bound tightness on mid-level nodes (crime): gap (UB−LB)/(w·|P|) and εKDV work",
		Headers: []string{"method", "gap p50", "gap p90", "gap mean", "pts scanned/pixel"},
	}
	qs := dataset.Subsample(d.Pts, 64, c.Seed+5)
	for _, m := range []struct {
		label  string
		method bounds.Method
	}{{"MinMax", bounds.MinMax}, {"KARL", bounds.Linear}, {"QUAD", bounds.Quadratic}} {
		ev, err := bounds.NewEvaluator(kernel.Gaussian, bw.Gamma, bw.Weight, m.method, 2)
		if err != nil {
			return err
		}
		var gaps []float64
		for i := 0; i < qs.Len(); i++ {
			q := qs.At(i)
			tree.Walk(func(id int32) bool {
				if n := tree.Size(id); n >= 64 && n <= 1024 {
					lb, ub := ev.FlatBounds(tree, id, q)
					gaps = append(gaps, (ub-lb)/(bw.Weight*tree.SumW[id]))
				}
				return tree.Size(id) > 64
			})
		}
		sort.Float64s(gaps)
		var mean float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))

		eng, err := engine.NewFlat(tree, ev)
		if err != nil {
			return err
		}
		var scanned int
		for i := 0; i < qs.Len(); i++ {
			_, st := eng.EvalEps(qs.At(i), 0.01)
			scanned += st.PointsScanned
		}
		t.Add(m.label,
			fmt.Sprintf("%.3g", percentile(gaps, 0.5)),
			fmt.Sprintf("%.3g", percentile(gaps, 0.9)),
			fmt.Sprintf("%.3g", mean),
			fmt.Sprintf("%.0f", float64(scanned)/float64(qs.Len())))
	}
	c.Emit(&t)
	return nil
}

// buildFlat indexes a copy of pts with the Gram statistic, as the bound
// experiments need it for every method.
func buildFlat(pts geom.Points) (*kdtree.Tree, error) {
	return kdtree.Build(pts.Clone(), kdtree.Options{Gram: true})
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func formatFloats(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("ε=%.2g", x)
	}
	return out
}

func tauHeaders(multiples []float64) []string {
	out := make([]string, len(multiples))
	for i, m := range multiples {
		switch {
		case m == 0:
			out[i] = "μ"
		case m > 0:
			out[i] = fmt.Sprintf("μ+%.1fσ", m)
		default:
			out[i] = fmt.Sprintf("μ−%.1fσ", -m)
		}
	}
	return out
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
