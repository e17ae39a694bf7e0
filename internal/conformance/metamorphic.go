package conformance

import (
	"context"
	"fmt"
	"math"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

// checkScaledBy asserts b[i] == s·a[i] bit-for-bit. It backs the properties
// where the transformation is exact in IEEE arithmetic (s a power of two).
func checkScaledBy(name string, a, b []float64, s float64) Check {
	if len(a) != len(b) {
		return Check{Name: name, Detail: fmt.Sprintf("raster sizes differ: %d vs %d", len(a), len(b))}
	}
	for i := range a {
		if math.Float64bits(b[i]) != math.Float64bits(s*a[i]) {
			return Check{Name: name, Detail: fmt.Sprintf("pixel %d: %.17g != %g × %.17g", i, b[i], s, a[i])}
		}
	}
	return Check{Name: name, Pass: true}
}

// checkMonotone asserts lo[i] ≤ hi[i] up to compensated-summation noise.
func checkMonotone(name string, lo, hi []float64) Check {
	if len(lo) != len(hi) {
		return Check{Name: name, Detail: fmt.Sprintf("raster sizes differ: %d vs %d", len(lo), len(hi))}
	}
	for i := range lo {
		if lo[i] > hi[i]+boundTol(lo[i], hi[i]) {
			return Check{Name: name, Detail: fmt.Sprintf("pixel %d: subset density %.17g exceeds full %.17g", i, lo[i], hi[i])}
		}
	}
	return Check{Name: name, Pass: true}
}

// bboxWindow returns the dataset's bounding box padded by frac of each span.
func bboxWindow(pts geom.Points, frac float64) quad.Window {
	r := geom.BoundingRect(pts)
	padX := frac * (r.Max[0] - r.Min[0])
	padY := frac * (r.Max[1] - r.Min[1])
	return quad.Window{
		MinX: r.Min[0] - padX, MinY: r.Min[1] - padY,
		MaxX: r.Max[0] + padX, MaxY: r.Max[1] + padY,
	}
}

func windowRect(w quad.Window) geom.Rect {
	return geom.Rect{Min: []float64{w.MinX, w.MinY}, Max: []float64{w.MaxX, w.MaxY}}
}

// runMetamorphic checks the suite's metamorphic properties on the Gaussian
// kernel under MethodQuadratic: relations between renders of transformed
// inputs that must hold without any reference to ground truth — several of
// them exactly, because the transformation commutes with IEEE rounding.
func runMetamorphic(cfg *Config, rep *Report) error {
	const k = kernel.Gaussian
	res := quad.Resolution{W: cfg.Res.W, H: cfg.Res.H}
	ref, err := quad.New(cfg.Pts.Coords, 2, quad.WithKernel(qKernel(k)))
	if err != nil {
		return fmt.Errorf("conformance: metamorphic reference build: %w", err)
	}
	gamma, weight := ref.Gamma(), ref.Weight()
	kdv, err := buildKDV(cfg, k, quad.MethodQuadratic, gamma, weight, 0)
	if err != nil {
		return err
	}
	dm, err := kdv.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: metamorphic render: %w", err)
	}
	mu, sigma := oracle.MuSigma(dm.Values)
	tau := mu + cfg.TauSigma*sigma
	hm, err := kdv.RenderTau(res, tau)
	if err != nil {
		return fmt.Errorf("conformance: metamorphic render: %w", err)
	}

	// Weight linearity: doubling the scalar weight doubles every pixel
	// exactly (scaling by a power of two commutes with every rounding in
	// the pipeline), and τKDV at 2τ makes identical decisions.
	kdv2w, err := buildKDV(cfg, k, quad.MethodQuadratic, gamma, 2*weight, 0)
	if err != nil {
		return err
	}
	dm2w, err := kdv2w.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: metamorphic render: %w", err)
	}
	rep.add(checkScaledBy("metamorphic/weight-linearity/eps", dm.Values, dm2w.Values, 2))
	hm2w, err := kdv2w.RenderTau(res, 2*tau)
	if err != nil {
		return fmt.Errorf("conformance: metamorphic render: %w", err)
	}
	rep.add(CheckMasksIdentical("metamorphic/weight-linearity/tau", hm.Hot, hm2w.Hot))

	if err := metamorphicTranslation(cfg, rep, gamma, weight); err != nil {
		return err
	}
	if err := metamorphicScale(cfg, rep, gamma, weight, tau); err != nil {
		return err
	}
	if err := metamorphicDuplication(cfg, rep, gamma, weight); err != nil {
		return err
	}
	return metamorphicSampling(cfg, rep, gamma, weight)
}

// metamorphicTranslation: translating the dataset and the window together
// must preserve the raster. The translation itself rounds (coordinates gain
// a large offset), so agreement is to tight floating-point tolerance for
// the oracle and within the stacked ε budgets for the renders.
func metamorphicTranslation(cfg *Config, rep *Report, gamma, weight float64) error {
	const k = kernel.Gaussian
	dx, dy := 4096.0, -2048.0
	shifted := make([]float64, len(cfg.Pts.Coords))
	for i := 0; i < len(shifted); i += 2 {
		shifted[i] = cfg.Pts.Coords[i] + dx
		shifted[i+1] = cfg.Pts.Coords[i+1] + dy
	}
	win := bboxWindow(cfg.Pts, 0.02)
	winT := quad.Window{MinX: win.MinX + dx, MinY: win.MinY + dy, MaxX: win.MaxX + dx, MaxY: win.MaxY + dy}

	o, err := oracle.New(cfg.Pts, nil, k, gamma, weight)
	if err != nil {
		return err
	}
	oT, err := oracle.New(geom.NewPoints(shifted, 2), nil, k, gamma, weight)
	if err != nil {
		return err
	}
	g, err := grid.New(cfg.Res, windowRect(win))
	if err != nil {
		return err
	}
	gT, err := grid.New(cfg.Res, windowRect(winT))
	if err != nil {
		return err
	}
	rep.add(CheckRastersWithin("metamorphic/translation/oracle", o.Raster(g), oT.Raster(gT), 1e-9))

	res := quad.Resolution{W: cfg.Res.W, H: cfg.Res.H}
	kdv, err := buildKDV(cfg, k, quad.MethodQuadratic, gamma, weight, 0)
	if err != nil {
		return err
	}
	cfgT := *cfg
	cfgT.Pts = geom.NewPoints(shifted, 2)
	kdvT, err := buildKDV(&cfgT, k, quad.MethodQuadratic, gamma, weight, 0)
	if err != nil {
		return err
	}
	r, err := kdv.Render(context.Background(), quad.Request{Res: res, Window: win, Eps: cfg.Eps})
	if err != nil {
		return err
	}
	rT, err := kdvT.Render(context.Background(), quad.Request{Res: res, Window: winT, Eps: cfg.Eps})
	if err != nil {
		return err
	}
	rep.add(CheckRastersWithin("metamorphic/translation/render", r.Density.Values, rT.Density.Values, 2*cfg.Eps))
	return nil
}

// metamorphicScale: scaling coordinates by s = 2 with γ' = γ/s² leaves the
// Gaussian density field unchanged — and since every intermediate (tree
// statistics, distances, envelope coefficients) scales by a power of two,
// the renders are bit-identical, not just close.
func metamorphicScale(cfg *Config, rep *Report, gamma, weight, tau float64) error {
	const k = kernel.Gaussian
	scaled := make([]float64, len(cfg.Pts.Coords))
	for i, v := range cfg.Pts.Coords {
		scaled[i] = 2 * v
	}
	win := bboxWindow(cfg.Pts, 0.02)
	winS := quad.Window{MinX: 2 * win.MinX, MinY: 2 * win.MinY, MaxX: 2 * win.MaxX, MaxY: 2 * win.MaxY}
	gammaS := gamma / 4

	o, err := oracle.New(cfg.Pts, nil, k, gamma, weight)
	if err != nil {
		return err
	}
	oS, err := oracle.New(geom.NewPoints(scaled, 2), nil, k, gammaS, weight)
	if err != nil {
		return err
	}
	g, err := grid.New(cfg.Res, windowRect(win))
	if err != nil {
		return err
	}
	gS, err := grid.New(cfg.Res, windowRect(winS))
	if err != nil {
		return err
	}
	rep.add(CheckRastersIdentical("metamorphic/scale/oracle", o.Raster(g), oS.Raster(gS)))

	res := quad.Resolution{W: cfg.Res.W, H: cfg.Res.H}
	kdv, err := buildKDV(cfg, k, quad.MethodQuadratic, gamma, weight, 0)
	if err != nil {
		return err
	}
	cfgS := *cfg
	cfgS.Pts = geom.NewPoints(scaled, 2)
	kdvS, err := buildKDV(&cfgS, k, quad.MethodQuadratic, gammaS, weight, 0)
	if err != nil {
		return err
	}
	r, err := kdv.Render(context.Background(), quad.Request{Res: res, Window: win, Eps: cfg.Eps})
	if err != nil {
		return err
	}
	rS, err := kdvS.Render(context.Background(), quad.Request{Res: res, Window: winS, Eps: cfg.Eps})
	if err != nil {
		return err
	}
	rep.add(CheckRastersIdentical("metamorphic/scale/eps", r.Density.Values, rS.Density.Values))
	r, err = kdv.Render(context.Background(), quad.Request{Variant: quad.TauKDV, Res: res, Window: win, Tau: tau})
	if err != nil {
		return err
	}
	rS, err = kdvS.Render(context.Background(), quad.Request{Variant: quad.TauKDV, Res: res, Window: winS, Tau: tau})
	if err != nil {
		return err
	}
	rep.add(CheckMasksIdentical("metamorphic/scale/tau", r.Hot.Hot, rS.Hot.Hot))
	return nil
}

// metamorphicDuplication: concatenating the dataset with itself equals
// doubling every per-point weight — for the oracle to compensated-summation
// tolerance, and for the renders within their stacked ε budgets against the
// shared ground truth.
func metamorphicDuplication(cfg *Config, rep *Report, gamma, weight float64) error {
	const k = kernel.Gaussian
	dup := append(append([]float64(nil), cfg.Pts.Coords...), cfg.Pts.Coords...)
	w2 := make([]float64, cfg.Pts.Len())
	for i := range w2 {
		w2[i] = 2
	}
	oDup, err := oracle.New(geom.NewPoints(dup, 2), nil, k, gamma, weight)
	if err != nil {
		return err
	}
	oW, err := oracle.New(cfg.Pts, w2, k, gamma, weight)
	if err != nil {
		return err
	}
	// Duplication preserves the bounding box, so both default windows match.
	g, err := grid.ForDataset(cfg.Res, cfg.Pts, 0.02)
	if err != nil {
		return err
	}
	exact := oDup.Raster(g)
	rep.add(CheckRastersWithin("metamorphic/duplication/oracle", exact, oW.Raster(g), 1e-12))

	res := quad.Resolution{W: cfg.Res.W, H: cfg.Res.H}
	kdvDup, err := quad.New(dup, 2, quad.WithKernel(qKernel(k)), quad.WithBandwidth(gamma, weight), quad.WithWorkers(cfg.Workers))
	if err != nil {
		return err
	}
	kdvW, err := quad.New(cfg.Pts.Coords, 2, quad.WithKernel(qKernel(k)), quad.WithPointWeights(w2), quad.WithBandwidth(gamma, weight), quad.WithWorkers(cfg.Workers))
	if err != nil {
		return err
	}
	dmDup, err := kdvDup.RenderEps(res, cfg.Eps)
	if err != nil {
		return err
	}
	dmW, err := kdvW.RenderEps(res, cfg.Eps)
	if err != nil {
		return err
	}
	rep.add(CheckEpsRaster("metamorphic/duplication/eps-dup", dmDup.Values, exact, cfg.Eps))
	rep.add(CheckEpsRaster("metamorphic/duplication/eps-weighted", dmW.Values, exact, cfg.Eps))
	rep.add(CheckRastersWithin("metamorphic/duplication/render-agreement", dmDup.Values, dmW.Values, 2*cfg.Eps))
	return nil
}

// metamorphicSampling: with γ and the scalar weight held fixed, the density
// of a prefix subset is pointwise ≤ the full dataset's (every kernel term
// is non-negative).
func metamorphicSampling(cfg *Config, rep *Report, gamma, weight float64) error {
	const k = kernel.Gaussian
	m := cfg.Pts.Len() / 2
	if m < 1 {
		return nil
	}
	prefix := geom.NewPoints(append([]float64(nil), cfg.Pts.Coords[:m*2]...), 2)
	oFull, err := oracle.New(cfg.Pts, nil, k, gamma, weight)
	if err != nil {
		return err
	}
	oPrefix, err := oracle.New(prefix, nil, k, gamma, weight)
	if err != nil {
		return err
	}
	g, err := grid.ForDataset(cfg.Res, cfg.Pts, 0.02)
	if err != nil {
		return err
	}
	rep.add(checkMonotone("metamorphic/sampling-monotonicity", oPrefix.Raster(g), oFull.Raster(g)))
	return nil
}
