package conformance

import (
	"fmt"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

func qKernel(k kernel.Kernel) quad.Kernel { return quad.Kernel(int(k)) }

// buildKDV constructs a KDV over the config's dataset with the given
// settings, pinning gamma/weight so every method is judged against the same
// oracle.
func buildKDV(cfg *Config, k kernel.Kernel, m quad.Method, gamma, weight float64, ts int) (*quad.KDV, error) {
	kdv, err := quad.New(cfg.Pts.Coords, 2,
		quad.WithKernel(qKernel(k)),
		quad.WithMethod(m),
		quad.WithBandwidth(gamma, weight),
		quad.WithTileSize(ts),
		quad.WithWorkers(cfg.Workers),
	)
	if err != nil {
		return nil, fmt.Errorf("conformance: building %s/%s/ts=%d: %w", k, m, ts, err)
	}
	return kdv, nil
}

// runDifferential is the core of the suite: the full method × kernel × tile
// size matrix, each cell rendered for both εKDV and τKDV and judged against
// the kernel's oracle raster, plus cross-tile-size identity checks and the
// determinism pass.
func runDifferential(cfg *Config, rep *Report) error {
	res := quad.Resolution{W: cfg.Res.W, H: cfg.Res.H}
	for _, k := range cfg.Kernels {
		// One reference build fixes (γ, w) per kernel; every method below is
		// constructed with the same pair so the single oracle raster is the
		// ground truth for all of them.
		ref, err := quad.New(cfg.Pts.Coords, 2, quad.WithKernel(qKernel(k)))
		if err != nil {
			return fmt.Errorf("conformance: reference build (%s): %w", k, err)
		}
		gamma, weight := ref.Gamma(), ref.Weight()
		// Same window derivation as KDV's default render path (points are
		// copied verbatim by New; only the tree's internal copy is
		// reordered), so pixel centers match bit-for-bit.
		g, err := grid.ForDataset(cfg.Res, cfg.Pts, 0.02)
		if err != nil {
			return fmt.Errorf("conformance: grid (%s): %w", k, err)
		}
		o, err := oracle.New(cfg.Pts, nil, k, gamma, weight)
		if err != nil {
			return fmt.Errorf("conformance: oracle (%s): %w", k, err)
		}
		exact := o.Raster(g)
		mu, sigma := oracle.MuSigma(exact)
		tau := mu + cfg.TauSigma*sigma

		for _, m := range cfg.Methods {
			if m == quad.MethodLinear && !k.HasLinearBounds() {
				continue // KARL is Gaussian-only (paper Section 5.1)
			}
			deterministic := m != quad.MethodZOrder
			scanBased := m == quad.MethodExact || m == quad.MethodZOrder
			var baseVals []float64
			var baseMask []bool
			baseTS := 0
			for _, ts := range cfg.TileSizes {
				kdv, err := buildKDV(cfg, k, m, gamma, weight, ts)
				if err != nil {
					return err
				}
				tag := fmt.Sprintf("%s/%s/ts=%d", k, m, ts)

				dm, err := kdv.RenderEps(res, cfg.Eps)
				if err != nil {
					return fmt.Errorf("conformance: RenderEps %s: %w", tag, err)
				}
				switch {
				case m == quad.MethodExact:
					rep.add(CheckEpsRaster("eps/"+tag, dm.Values, exact, oracle.ExactTol))
				case deterministic:
					rep.add(CheckEpsRaster("eps/"+tag, dm.Values, exact, cfg.Eps))
				default:
					rep.add(ObservedError("eps/"+tag, dm.Values, exact))
				}

				hm, err := kdv.RenderTau(res, tau)
				if err != nil {
					return fmt.Errorf("conformance: RenderTau %s: %w", tag, err)
				}
				if deterministic {
					rep.add(CheckMaskAgainstRaster("tau/"+tag, hm.Hot, exact, tau, oracle.FPMargin))
				}

				if baseMask == nil {
					baseVals = append([]float64(nil), dm.Values...)
					baseMask = append([]bool(nil), hm.Hot...)
					baseTS = ts
				} else {
					// τKDV classification is bit-identical across tile sizes
					// by design (the tile phase only settles zero-gap nodes).
					rep.add(CheckMasksIdentical(
						fmt.Sprintf("tau-tile-identity/%s/%s/ts=%d-vs-%d", k, m, baseTS, ts),
						baseMask, hm.Hot))
					if scanBased {
						// Scan paths ignore tile structure entirely.
						rep.add(CheckRastersIdentical(
							fmt.Sprintf("eps-tile-identity/%s/%s/ts=%d-vs-%d", k, m, baseTS, ts),
							baseVals, dm.Values))
					} else {
						// εKDV values legitimately drift across tile sizes
						// (different refinement orders stop at different
						// points inside the band); each raster carries its
						// own ε guarantee, so pairwise drift is bounded by
						// 2ε.
						rep.add(CheckRastersWithin(
							fmt.Sprintf("eps-tile-drift/%s/%s/ts=%d-vs-%d", k, m, baseTS, ts),
							baseVals, dm.Values, 2*cfg.Eps))
					}
				}
			}
		}
	}
	return runDeterminism(cfg, rep)
}

// runDeterminism asserts the repeatability contracts: rendering the same
// scene twice on one KDV, on a freshly built identical KDV, and across
// worker counts is byte-identical.
func runDeterminism(cfg *Config, rep *Report) error {
	k := cfg.Kernels[0]
	ref, err := quad.New(cfg.Pts.Coords, 2, quad.WithKernel(qKernel(k)))
	if err != nil {
		return fmt.Errorf("conformance: determinism reference build: %w", err)
	}
	gamma, weight := ref.Gamma(), ref.Weight()
	res := quad.Resolution{W: cfg.Res.W, H: cfg.Res.H}
	kdv, err := buildKDV(cfg, k, quad.MethodQuadratic, gamma, weight, 0)
	if err != nil {
		return err
	}

	dm1, err := kdv.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: determinism render: %w", err)
	}
	dm2, err := kdv.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: determinism render: %w", err)
	}
	rep.add(CheckRastersIdentical("determinism/eps-repeat", dm1.Values, dm2.Values))

	mu, sigma := oracle.MuSigma(dm1.Values)
	tau := mu + cfg.TauSigma*sigma
	hm1, err := kdv.RenderTau(res, tau)
	if err != nil {
		return fmt.Errorf("conformance: determinism render: %w", err)
	}
	hm2, err := kdv.RenderTau(res, tau)
	if err != nil {
		return fmt.Errorf("conformance: determinism render: %w", err)
	}
	rep.add(CheckMasksIdentical("determinism/tau-repeat", hm1.Hot, hm2.Hot))

	// A fresh identical build and a different worker count must reproduce
	// the raster bit-for-bit: results depend only on configuration, never on
	// scheduling.
	wcfg := *cfg
	wcfg.Workers = cfg.Workers + 3
	kdvW, err := buildKDV(&wcfg, k, quad.MethodQuadratic, gamma, weight, 0)
	if err != nil {
		return err
	}
	dmW, err := kdvW.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: determinism render: %w", err)
	}
	rep.add(CheckRastersIdentical("determinism/eps-workers", dm1.Values, dmW.Values))
	hmW, err := kdvW.RenderTau(res, tau)
	if err != nil {
		return fmt.Errorf("conformance: determinism render: %w", err)
	}
	rep.add(CheckMasksIdentical("determinism/tau-workers", hm1.Hot, hmW.Hot))
	return nil
}
