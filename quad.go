// Package quad is a fast kernel density visualization (KDV) library: a Go
// implementation of QUAD ("QUAD: Quadratic-Bound-based Kernel Density
// Visualization", SIGMOD 2020) together with the baselines the paper
// evaluates against.
//
// KDV colors every pixel q of a raster by the kernel density value
//
//	F_P(q) = Σ_{p∈P} w·K(q, p)
//
// which is expensive to evaluate exactly. The library answers the paper's
// two practical variants with strong guarantees:
//
//   - εKDV (Estimate, RenderEps): values within relative error ε of F_P(q);
//   - τKDV (IsHot, RenderTau): whether F_P(q) ≥ τ, for two-color hotspot
//     maps.
//
// Both run on a kd-tree refinement framework whose speed is set by the
// tightness of the node bound functions. Quadratic (the default) is QUAD's
// contribution — the tightest known bounds; Linear is the KARL baseline,
// MinMax the aKDE/tKDC baseline, ZOrder the sampling baseline, and Exact
// the sequential scan. A progressive renderer streams coarse-to-fine color
// maps under a wall-clock budget (paper Section 6).
//
// KDV.Render is the one render call: a Request names the variant
// (EpsKDV, TauKDV or ProgressiveKDV) and its parameters — resolution,
// pan/zoom window, tile sub-rectangle, ε or τ, work map, progressive
// budget and snapshot callback — and Request.Validate rejects a request
// before anything is allocated. The Result always carries the render's
// work counters. Render polls its context between rows of pixel work and
// returns ctx.Err() promptly — the primitive interactive servers need
// when users pan, zoom, or abandon requests mid-render. RenderEps and
// RenderTau are two-argument shorthands over context.Background().
//
// The same bound machinery also powers two kernel-method extensions from
// the paper's future-work list: kernel density classification
// (NewClassifier — per-class density bounds raced until one class provably
// wins) and Nadaraya–Watson kernel regression (NewRegressor — predictions
// refined to a certified tolerance).
//
// Quick start:
//
//	kdv, err := quad.NewFromPoints(points) // [][]float64, 2-d
//	if err != nil { ... }
//	dm, err := kdv.RenderEps(quad.Resolution{W: 640, H: 480}, 0.01)
//	if err != nil { ... }
//	err = dm.SavePNG("heatmap.png", true)
package quad

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/stats"
	"github.com/quadkdv/quad/internal/zorder"
)

// Kernel selects the kernel function K(q, p).
type Kernel int

// Supported kernels. Gaussian, Triangular, Cosine and Exponential are the
// paper's kernels (Equation 1 and Table 4); Epanechnikov, Quartic and
// Uniform are extensions.
const (
	Gaussian Kernel = iota
	Triangular
	Cosine
	Exponential
	Epanechnikov
	Quartic
	Uniform
)

// String returns the kernel's canonical name.
func (k Kernel) String() string { return kernel.Kernel(k).String() }

// ParseKernel maps a kernel name to its constant.
func ParseKernel(name string) (Kernel, error) {
	k, err := kernel.Parse(name)
	return Kernel(k), err
}

func (k Kernel) internal() kernel.Kernel { return kernel.Kernel(k) }

// Method selects the evaluation algorithm.
type Method int

const (
	// MethodQuadratic is QUAD — quadratic bounds, this paper's
	// contribution and the default.
	MethodQuadratic Method = iota
	// MethodLinear is KARL's linear bounds (Gaussian kernel only).
	MethodLinear
	// MethodMinMax is the aKDE (εKDV) / tKDC (τKDV) rectangle-distance
	// bound.
	MethodMinMax
	// MethodExact is the sequential scan baseline.
	MethodExact
	// MethodZOrder is the Z-order sampling baseline: exact KDV over a
	// systematic sample along a Morton curve, with a probabilistic (not
	// deterministic) error guarantee. 2-d datasets only.
	MethodZOrder
)

// String returns the method's canonical name.
func (m Method) String() string {
	switch m {
	case MethodQuadratic:
		return "quad"
	case MethodLinear:
		return "karl"
	case MethodMinMax:
		return "minmax"
	case MethodExact:
		return "exact"
	case MethodZOrder:
		return "zorder"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod maps a method name ("quad", "karl", "minmax", "exact",
// "zorder") to its constant.
func ParseMethod(name string) (Method, error) {
	for _, m := range []Method{MethodQuadratic, MethodLinear, MethodMinMax, MethodExact, MethodZOrder} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("quad: unknown method %q", name)
}

// Resolution is an output raster size in pixels. Renders reject a raster
// of more than 2²⁸ pixels with an error; for a sub-render the limit applies
// to the sub-rectangle, not the full raster.
type Resolution struct{ W, H int }

// String formats the resolution as "WxH".
func (r Resolution) String() string { return grid.Resolution{W: r.W, H: r.H}.String() }

func (r Resolution) internal() grid.Resolution { return grid.Resolution{W: r.W, H: r.H} }

// Option configures a KDV instance.
type Option func(*config)

type config struct {
	kern       Kernel
	method     Method
	gamma      float64 // 0 → Scott's rule
	weight     float64 // 0 → 1/n
	leafSize   int
	workers    int
	zsampleEps float64 // ε the Z-order sample size is dimensioned for
	zdelta     float64
	seedWindow float64 // grid margin fraction
	ptWeights  []float64
	ballBounds bool
	bwRule     BandwidthRule
	tileSize   int
	sharded    bool
	shardIndex int
	shardCount int
}

// WithKernel selects the kernel function (default Gaussian).
func WithKernel(k Kernel) Option { return func(c *config) { c.kern = k } }

// WithMethod selects the evaluation method (default MethodQuadratic).
func WithMethod(m Method) Option { return func(c *config) { c.method = m } }

// WithBandwidth overrides Scott's rule with an explicit γ (kernel distance
// scale) and per-point weight w. Either value ≤ 0 keeps its automatic
// default (Scott's γ, w = 1/n).
func WithBandwidth(gamma, weight float64) Option {
	return func(c *config) { c.gamma, c.weight = gamma, weight }
}

// WithLeafSize sets the kd-tree leaf capacity (default 30).
func WithLeafSize(n int) Option { return func(c *config) { c.leafSize = n } }

// WithWorkers sets the number of goroutines a full-raster render spreads
// its pixel tiles and their 4×4 sub-tiles over (the paper's "parallel
// computation" future-work knob), and bounds the goroutines New builds the
// kd-tree index on. A render starts min(n, units) of them, where a unit is
// a sub-tile on tile-shared passes and a tile otherwise, so even a
// one-tile raster runs on several; a build spreads the nodes of each tree
// level, then the nodes' moment sums, over them. The default, also
// selected by 0 or negative, is runtime.GOMAXPROCS(0) read at
// construction, so a build and a render use every core the process may
// run on; WithWorkers(1) is the paper's single-threaded setting. The index,
// rasters and RenderStats work counters are identical for every worker
// count, because the nodes of a level, the tiles and the sub-tiles are
// built and evaluated independently.
// Progressive renders and the per-query calls (Estimate, IsHot) run on one
// goroutine regardless.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithZOrderGuarantee dimensions the MethodZOrder sample for a target
// (ε, δ) probabilistic guarantee (defaults ε=0.01, δ=0.2 — the paper's
// "ε with probability 0.8").
func WithZOrderGuarantee(eps, delta float64) Option {
	return func(c *config) { c.zsampleEps, c.zdelta = eps, delta }
}

// WithWindowMargin sets the fractional margin added around the dataset's
// bounding box when deriving the render window (default 0.02).
func WithWindowMargin(frac float64) Option { return func(c *config) { c.seedWindow = frac } }

// WithTileSize sets the pixel tile edge of Render and its shorthands (default
// 16). Renders are evaluated tile by tile: one shared kd-tree refinement per
// tile classifies index nodes once for all of the tile's pixels, and each
// pixel's refinement then warm-starts from the small residual frontier
// instead of the root. 1 disables sharing (the paper's pure per-pixel
// refinement — useful as a baseline); 0 or negative selects the default.
// Every setting honors the guarantees, but εKDV pixel values may differ
// across tile sizes: warm-started refinement can stop at a different
// (still ε-certified) interval than root refinement, so only τKDV hot
// masks are bit-identical for every tile size. For a fixed tile size,
// renders are deterministic and independent of the worker count.
func WithTileSize(n int) Option { return func(c *config) { c.tileSize = n } }

// BandwidthRule selects the automatic bandwidth selector used when
// WithBandwidth is not given.
type BandwidthRule int

const (
	// Scott is Scott's rule h_j = σ_j·n^{−1/(d+4)} — the paper's choice
	// (Section 7.1) and the default.
	Scott BandwidthRule = iota
	// Silverman is Silverman's rule of thumb, Scott's factor scaled by
	// (4/(d+2))^{1/(d+4)} — slightly smoother maps.
	Silverman
)

// WithBandwidthRule selects the automatic bandwidth selector (default
// Scott). Ignored when WithBandwidth supplies an explicit γ.
func WithBandwidthRule(r BandwidthRule) Option { return func(c *config) { c.bwRule = r } }

// WithTightNodeBounds additionally intersects each index node's
// bounding-ball distance interval with its bounding-rectangle interval,
// tightening every method's bounds at the cost of one extra distance
// computation per node visit. Off by default to match the paper's
// MBR-only baselines.
func WithTightNodeBounds(on bool) Option { return func(c *config) { c.ballBounds = on } }

// WithPointWeights supplies per-point weights w_i ≥ 0, generalizing the KDE
// function to F_P(q) = Σ w·w_i·K(q, p_i) — the form the sampling literature's
// reweighted outputs need (paper Section 2). The slice must be parallel to
// the dataset; it is copied. Incompatible with MethodZOrder. With weights,
// the automatic scalar weight default becomes 1/Σw_i instead of 1/n.
func WithPointWeights(ws []float64) Option {
	return func(c *config) { c.ptWeights = ws }
}

// KDV is a kernel density visualizer over one dataset. It is safe for
// concurrent use by multiple goroutines: per-call engines are drawn from an
// internal pool.
type KDV struct {
	pts          geom.Points
	weights      []float64    // per-point weights, nil = uniform
	fullRect     geom.Rect    // full-dataset bounds when sharded (WithShard)
	ftree        *kdtree.Tree // SoA kd-tree index (bound-based methods)
	cfg          config
	bw           stats.Bandwidth
	proto        *bounds.Evaluator // nil for MethodExact / MethodZOrder
	sample       geom.Points       // Z-order sample (MethodZOrder)
	sampleWeight float64
	engines      sync.Pool
	tileScratch  sync.Pool    // *renderScratch for tile render workers
	scratchLive  atomic.Int64 // render scratches checked out and not yet returned
	frontiers    sync.Pool    // *engine.FlatFrontier, a render tile's coarse frontier

	permOnce sync.Once
	perm     []int // lazily-built Z-order permutation for OraclePartial
}

// New builds a KDV instance over a flat row-major coordinate buffer of
// n·dim values. The buffer is copied; the caller's data is not modified.
func New(coords []float64, dim int, opts ...Option) (*KDV, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("quad: dimension must be positive, got %d", dim)
	}
	if len(coords) == 0 {
		return nil, fmt.Errorf("quad: empty dataset")
	}
	if len(coords)%dim != 0 {
		return nil, fmt.Errorf("quad: coordinate buffer length %d is not a multiple of dim %d", len(coords), dim)
	}
	pts := geom.NewPoints(append([]float64(nil), coords...), dim)
	return newKDV(pts, opts)
}

// NewFromPoints builds a KDV instance from a slice of points; all points
// must share one dimensionality.
func NewFromPoints(points [][]float64, opts ...Option) (*KDV, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("quad: empty dataset")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("quad: zero-dimensional points")
	}
	coords := make([]float64, 0, len(points)*dim)
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("quad: point %d has dimension %d, want %d", i, len(p), dim)
		}
		coords = append(coords, p...)
	}
	return newKDV(geom.NewPoints(coords, dim), opts)
}

func newKDV(pts geom.Points, opts []Option) (*KDV, error) {
	cfg := config{
		kern:       Gaussian,
		method:     MethodQuadratic,
		zsampleEps: 0.01,
		zdelta:     0.2,
		seedWindow: 0.02,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	k := cfg.kern.internal()
	if !k.Valid() {
		return nil, fmt.Errorf("quad: invalid kernel %d", int(cfg.kern))
	}
	// A NaN or infinite coordinate would poison the bandwidth, every node
	// statistic above it and so every pixel; no guarantee covers it.
	for i, v := range pts.Coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("quad: point %d has non-finite coordinate %g", i/pts.Dim, v)
		}
	}
	var weights []float64
	if cfg.ptWeights != nil {
		if len(cfg.ptWeights) != pts.Len() {
			return nil, fmt.Errorf("quad: %d point weights for %d points", len(cfg.ptWeights), pts.Len())
		}
		var sum float64
		for i, w := range cfg.ptWeights {
			if !(w >= 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("quad: point weight %g at index %d is not finite and non-negative", w, i)
			}
			sum += w
		}
		if sum <= 0 || math.IsInf(sum, 1) {
			return nil, fmt.Errorf("quad: point weights sum to %g; need a positive, finite total", sum)
		}
		weights = append([]float64(nil), cfg.ptWeights...)
	}
	var bw stats.Bandwidth
	switch cfg.bwRule {
	case Silverman:
		bw = stats.SilvermanRule(pts, k)
	default:
		bw = stats.ScottsRule(pts, k)
	}
	if cfg.gamma > 0 {
		bw.Gamma = cfg.gamma
	}
	switch {
	case cfg.weight > 0:
		bw.Weight = cfg.weight
	case weights != nil:
		// Normalize by total weight rather than cardinality.
		var sum float64
		for _, w := range weights {
			sum += w
		}
		bw.Weight = 1 / sum
	}

	// Shard restriction happens only after the bandwidth and weight
	// normalization above were fixed from the full dataset, so per-shard
	// densities sum exactly to the full-dataset density (see WithShard).
	var fullRect geom.Rect
	if cfg.sharded {
		var err error
		pts, weights, fullRect, err = applyShard(&cfg, pts, weights)
		if err != nil {
			return nil, err
		}
	}

	kdv := &KDV{pts: pts, weights: weights, fullRect: fullRect, cfg: cfg, bw: bw}
	switch cfg.method {
	case MethodZOrder:
		if weights != nil {
			return nil, fmt.Errorf("quad: MethodZOrder does not support per-point weights")
		}
		sampler, err := zorder.NewSampler(pts)
		if err != nil {
			return nil, err
		}
		m := zorder.SampleSize(cfg.zsampleEps, cfg.zdelta, pts.Len())
		sample, mult := sampler.Sample(m)
		kdv.sample = sample
		kdv.sampleWeight = bw.Weight * mult
	case MethodExact:
		// No index needed.
	default:
		method, err := toBoundsMethod(cfg.method)
		if err != nil {
			return nil, err
		}
		ev, err := bounds.NewEvaluator(k, bw.Gamma, bw.Weight, method, pts.Dim)
		if err != nil {
			return nil, err
		}
		ev.SetBallTightening(cfg.ballBounds)
		tree, err := kdtree.Build(pts, kdtree.Options{
			LeafSize: cfg.leafSize, Gram: ev.NeedsGram(), Weights: weights, Workers: cfg.workers,
		})
		if err != nil {
			return nil, err
		}
		kdv.proto = ev
		kdv.ftree = tree
		// Construct one renderer eagerly so configuration errors surface here
		// rather than on the first query.
		r, err := kdv.newRenderer()
		if err != nil {
			return nil, err
		}
		kdv.engines.Put(r)
	}
	return kdv, nil
}

// newRenderer constructs a render engine over the KDV's index.
func (k *KDV) newRenderer() (*engine.FlatTileEngine, error) {
	feng, err := engine.NewFlat(k.ftree, k.proto.Clone())
	if err != nil {
		return nil, err
	}
	return engine.NewFlatTileEngine(feng), nil
}

func toBoundsMethod(m Method) (bounds.Method, error) {
	switch m {
	case MethodQuadratic:
		return bounds.Quadratic, nil
	case MethodLinear:
		return bounds.Linear, nil
	case MethodMinMax:
		return bounds.MinMax, nil
	default:
		return 0, fmt.Errorf("quad: method %s has no bound function", m)
	}
}

// Dim returns the dataset's dimensionality.
func (k *KDV) Dim() int { return k.pts.Dim }

// Len returns the dataset's cardinality.
func (k *KDV) Len() int { return k.pts.Len() }

// Gamma returns the kernel's distance-scale parameter in use.
func (k *KDV) Gamma() float64 { return k.bw.Gamma }

// Weight returns the per-point weight in use.
func (k *KDV) Weight() float64 { return k.bw.Weight }

// Bandwidth returns the underlying Scott's-rule bandwidth h (data units).
func (k *KDV) Bandwidth() float64 { return k.bw.H }

// KernelFunc returns the configured kernel.
func (k *KDV) KernelFunc() Kernel { return k.cfg.kern }

// EvalMethod returns the configured method.
func (k *KDV) EvalMethod() Method { return k.cfg.method }
