// Package conformance is the guarantee-checking layer built on the oracle:
// it renders the same scene through every evaluation method, kernel, and
// tile size the library supports and asserts, against Kahan-summed exact
// ground truth, that each path honors its contract — the εKDV relative-error
// guarantee pixel-by-pixel, exact τKDV classification, bit-identical hot
// masks between tile-shared and per-pixel refinement, the bound-dominance
// invariants (LB ≤ F ≤ UB on every node; QUAD ⊆ KARL ⊆ min-max interval
// nesting for the Gaussian kernel), a set of metamorphic properties
// (translation/scale invariance, weight linearity, duplication ≡ weight
// doubling, sampling monotonicity), and the additive shard-merge contract
// behind the scale-out coordinator (per-shard WithShard rasters sum to the
// single-process result within the same ε).
//
// The individual Check* helpers are pure functions over rasters, masks, and
// an injectable Bounder, so the suite can prove its own teeth: mutation
// self-tests feed intentionally corrupted inputs and assert the checks fail.
//
// cmd/kdvcheck wraps Run as a CLI emitting the Report as JSON; `make
// verify` and CI run it on a small seeded dataset.
package conformance

import (
	"fmt"
	"math"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

// Config selects the dataset and the conformance matrix to run over it.
// Zero values select defaults (all kernels, all methods, tile sizes
// {1, 4, 16}, ε = 0.05, τ = μ + 0.5σ).
type Config struct {
	// Name labels the dataset in the report.
	Name string
	// Pts is the dataset; rendering checks require 2-d points.
	Pts geom.Points
	// Res is the raster resolution (default 40×30 — large enough that hot
	// regions span several tiles, small enough that brute-force oracle
	// rasters for every kernel stay fast).
	Res grid.Resolution
	// Eps is the εKDV relative-error budget (default 0.05).
	Eps float64
	// TauSigma positions the τKDV threshold at μ + TauSigma·σ of the exact
	// raster (default 0.5, matching the paper's mid-ladder setting).
	TauSigma float64
	// TileSizes are the WithTileSize settings to cross the methods with
	// (default {1, 4, 16}: per-pixel baseline, sub-tile, full tile).
	TileSizes []int
	// Kernels defaults to every supported kernel.
	Kernels []kernel.Kernel
	// Methods defaults to all five evaluation methods.
	Methods []quad.Method
	// Workers is the render worker count (default 1; the determinism pass
	// separately asserts workers-independence).
	Workers int
	// Seed drives the query sampling of the bound-dominance pass.
	Seed int64
	// SkipBounds / SkipMetamorphic / SkipSharding drop those passes (used
	// to scope fast CLI runs; the full suite runs everything).
	SkipBounds      bool
	SkipMetamorphic bool
	SkipSharding    bool
	// SkipTiles drops the tile-pyramid stitch pass entirely; TileQuick cuts
	// it to the first kernel × MethodQuadratic (both zooms still run). The
	// quick subset is what `kdvcheck -quick` gates on.
	SkipTiles bool
	TileQuick bool
}

func (c *Config) setDefaults() error {
	if c.Pts.Dim <= 0 || len(c.Pts.Coords) == 0 {
		return fmt.Errorf("conformance: empty dataset")
	}
	if c.Pts.Dim != 2 {
		return fmt.Errorf("conformance: rendering checks need 2-d points, got %d-d", c.Pts.Dim)
	}
	if c.Name == "" {
		c.Name = "dataset"
	}
	if c.Res.W == 0 || c.Res.H == 0 {
		c.Res = grid.Resolution{W: 40, H: 30}
	}
	if c.Eps <= 0 {
		c.Eps = 0.05
	}
	if c.TauSigma == 0 {
		c.TauSigma = 0.5
	}
	if len(c.TileSizes) == 0 {
		c.TileSizes = []int{1, 4, 16}
	}
	if len(c.Kernels) == 0 {
		c.Kernels = kernel.All()
	}
	if len(c.Methods) == 0 {
		c.Methods = []quad.Method{quad.MethodQuadratic, quad.MethodLinear, quad.MethodMinMax, quad.MethodExact, quad.MethodZOrder}
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Check is one verdict of the suite.
type Check struct {
	// Name identifies the check, e.g. "eps/gaussian/quad/ts=4".
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	// Info marks observational checks that never fail (e.g. Z-order's
	// probabilistic error, where a deterministic assertion would be wrong).
	Info bool `json:"info,omitempty"`
	// MaxRelErr is the worst observed relative deviation, when meaningful.
	MaxRelErr float64 `json:"max_rel_err,omitempty"`
	// Detail explains a failure or records the observation.
	Detail string `json:"detail,omitempty"`
}

// Report is the JSON-serializable outcome of a conformance run.
type Report struct {
	Dataset  string  `json:"dataset"`
	N        int     `json:"n"`
	Res      string  `json:"res"`
	Eps      float64 `json:"eps"`
	TauSigma float64 `json:"tau_sigma"`
	Checks   []Check `json:"checks"`
	Passed   int     `json:"passed"`
	Failed   int     `json:"failed"`
	Pass     bool    `json:"pass"`
}

func (r *Report) add(c Check) {
	r.Checks = append(r.Checks, c)
	if c.Pass {
		r.Passed++
	} else {
		r.Failed++
	}
}

// Failures returns the failing checks.
func (r *Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Run executes the conformance suite and returns its report. An error means
// the suite could not run (bad config, construction failure); guarantee
// violations are reported as failed checks, not errors.
func Run(cfg Config) (*Report, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rep := &Report{
		Dataset:  cfg.Name,
		N:        cfg.Pts.Len(),
		Res:      cfg.Res.String(),
		Eps:      cfg.Eps,
		TauSigma: cfg.TauSigma,
	}
	if err := runDifferential(&cfg, rep); err != nil {
		return nil, err
	}
	if !cfg.SkipTiles {
		if err := runTiles(&cfg, rep); err != nil {
			return nil, err
		}
	}
	if !cfg.SkipBounds {
		if err := runDominance(&cfg, rep); err != nil {
			return nil, err
		}
	}
	if !cfg.SkipMetamorphic {
		if err := runMetamorphic(&cfg, rep); err != nil {
			return nil, err
		}
	}
	if !cfg.SkipSharding {
		if err := runSharding(&cfg, rep); err != nil {
			return nil, err
		}
	}
	rep.Pass = rep.Failed == 0
	return rep, nil
}

// CheckEpsRaster asserts the εKDV guarantee |vals[i] − exact[i]| ≤
// ε·exact[i] on every pixel, up to a rounding allowance of a few ulps of
// exact[i] (oracle.RoundingSlack). NaN or infinite values fail.
func CheckEpsRaster(name string, vals, exact []float64, eps float64) Check {
	if len(vals) != len(exact) {
		return Check{Name: name, Detail: fmt.Sprintf("raster size %d != oracle %d", len(vals), len(exact))}
	}
	worst := 0.0
	bad, badAt := 0, -1
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Check{Name: name, Detail: fmt.Sprintf("pixel %d is %g", i, v)}
		}
		diff := math.Abs(v - exact[i])
		if exact[i] > 0 {
			if rel := diff / exact[i]; rel > worst {
				worst = rel
			}
		}
		if diff > eps*exact[i]+oracle.RoundingSlack(exact[i]) {
			bad++
			if badAt < 0 {
				badAt = i
			}
		}
	}
	c := Check{Name: name, Pass: bad == 0, MaxRelErr: worst}
	if bad > 0 {
		c.Detail = fmt.Sprintf("%d/%d pixels exceed ε=%g (first at %d: got %.17g, exact %.17g)",
			bad, len(vals), eps, badAt, vals[badAt], exact[badAt])
	}
	return c
}

// ObservedError reports the worst relative deviation of vals from exact
// without asserting a bound — used for Z-order, whose guarantee is
// probabilistic, so any deterministic per-run assertion would be unsound.
func ObservedError(name string, vals, exact []float64) Check {
	c := CheckEpsRaster(name, vals, exact, math.Inf(1))
	c.Pass = true
	c.Info = true
	c.Detail = fmt.Sprintf("probabilistic guarantee; observed max rel err %.3g", c.MaxRelErr)
	return c
}

// CheckMaskAgainstRaster asserts the τKDV contract: pixel i is hot iff
// exact[i] ≥ tau. Pixels whose exact density lies within margin·max(τ, F)
// of τ are excused — there the engine's fixed-precision aggregates may
// legitimately land on the other side of the threshold than the
// Kahan-summed oracle.
func CheckMaskAgainstRaster(name string, hot []bool, exact []float64, tau, margin float64) Check {
	if len(hot) != len(exact) {
		return Check{Name: name, Detail: fmt.Sprintf("mask size %d != oracle %d", len(hot), len(exact))}
	}
	bad, badAt, excused := 0, -1, 0
	for i, h := range hot {
		want := exact[i] >= tau
		if h == want {
			continue
		}
		if math.Abs(exact[i]-tau) <= margin*math.Max(tau, exact[i]) {
			excused++
			continue
		}
		bad++
		if badAt < 0 {
			badAt = i
		}
	}
	c := Check{Name: name, Pass: bad == 0}
	switch {
	case bad > 0:
		c.Detail = fmt.Sprintf("%d/%d pixels misclassified (first at %d: hot=%v, exact %.17g vs τ=%.17g)",
			bad, len(hot), badAt, hot[badAt], exact[badAt], tau)
	case excused > 0:
		c.Detail = fmt.Sprintf("%d pixels within fp margin of τ excused", excused)
	}
	return c
}

// CheckMasksIdentical asserts two hot masks agree on every pixel — the
// tile-shared traversal's bit-identity contract for τKDV.
func CheckMasksIdentical(name string, a, b []bool) Check {
	if len(a) != len(b) {
		return Check{Name: name, Detail: fmt.Sprintf("mask sizes differ: %d vs %d", len(a), len(b))}
	}
	for i := range a {
		if a[i] != b[i] {
			return Check{Name: name, Detail: fmt.Sprintf("masks diverge at pixel %d: %v vs %v", i, a[i], b[i])}
		}
	}
	return Check{Name: name, Pass: true}
}

// CheckRastersIdentical asserts two rasters are byte-identical
// (bit-comparing, so NaNs can't slip through an == comparison).
func CheckRastersIdentical(name string, a, b []float64) Check {
	if len(a) != len(b) {
		return Check{Name: name, Detail: fmt.Sprintf("raster sizes differ: %d vs %d", len(a), len(b))}
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return Check{Name: name, Detail: fmt.Sprintf("rasters diverge at pixel %d: %.17g vs %.17g", i, a[i], b[i])}
		}
	}
	return Check{Name: name, Pass: true}
}

// CheckRastersWithin asserts |a[i] − b[i]| ≤ tol·max(|a[i]|, |b[i]|) on
// every pixel, up to a rounding allowance of a few ulps of that maximum
// (oracle.RoundingSlack) — the pairwise form used when two rasters each carry an ε
// guarantee against the same ground truth (so they may differ from each
// other by up to 2ε).
func CheckRastersWithin(name string, a, b []float64, tol float64) Check {
	if len(a) != len(b) {
		return Check{Name: name, Detail: fmt.Sprintf("raster sizes differ: %d vs %d", len(a), len(b))}
	}
	worst := 0.0
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		ref := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if ref > 0 {
			worst = math.Max(worst, diff/ref)
		}
		if diff > tol*ref+oracle.RoundingSlack(ref) {
			return Check{Name: name, MaxRelErr: worst,
				Detail: fmt.Sprintf("pixel %d: %.17g vs %.17g exceeds rel tol %g", i, a[i], b[i], tol)}
		}
	}
	return Check{Name: name, Pass: true, MaxRelErr: worst}
}
