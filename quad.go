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
// the sequential scan. A progressive renderer (RenderProgressive,
// RenderProgressiveStream) streams coarse-to-fine color maps under a
// wall-clock budget (paper Section 6).
//
// Every long-running entry point has a context-aware form (RenderEpsCtx,
// RenderTauCtx, RenderProgressiveCtx, EstimateCtx, ThresholdStatsCtx, …)
// that polls cancellation between rows of pixel work and returns ctx.Err()
// promptly — the primitive interactive servers need when users pan, zoom,
// or abandon requests mid-render. The plain forms are thin wrappers over
// context.Background().
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
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kdtree/flat"
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

// Resolution is an output raster size in pixels.
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
	layout     EngineLayout
}

// EngineLayout selects the kd-tree memory layout the bound engine runs on.
type EngineLayout int

const (
	// LayoutFlat (the default) runs the engine over a contiguous
	// struct-of-arrays copy of the kd-tree: int32 node ids through parallel
	// statistic arrays in BFS order, which keeps the refinement hot loop
	// cache-resident. Renders are bit-identical to LayoutPointer.
	LayoutFlat EngineLayout = iota
	// LayoutPointer runs the engine over the original pointer-linked node
	// tree. It is retained as the test oracle for the flat engine (the
	// conformance suite renders both and requires bit-identical rasters)
	// and as a fallback while the flat layout matures.
	LayoutPointer
)

// WithEngineLayout selects the engine's tree memory layout (default
// LayoutFlat). Both layouts produce bit-identical results for every method,
// kernel, tile size, and shard configuration; LayoutPointer trades the flat
// layout's speed for the simpler, directly-debuggable representation.
func WithEngineLayout(l EngineLayout) Option { return func(c *config) { c.layout = l } }

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
// its pixel tiles over (the paper's "parallel computation" future-work
// knob). The default, also selected by 0 or negative, is
// runtime.GOMAXPROCS(0) read at construction, so a render uses every core
// the process may run on; WithWorkers(1) is the paper's single-threaded
// setting. Rasters and RenderStats work counters are identical for every
// worker count, because tiles are evaluated independently. Progressive
// renders and the per-query calls (Estimate, IsHot) run on one goroutine
// regardless.
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

// WithTileSize sets the pixel tile edge used by the Render* calls (default
// 16). Renders are evaluated tile by tile: one shared kd-tree refinement per
// tile classifies index nodes once for all of the tile's pixels, and each
// pixel's refinement then warm-starts from the small residual frontier
// instead of the root. 1 disables sharing (the paper's pure per-pixel
// refinement — useful as a baseline); 0 or negative selects the default.
// Every setting honors the guarantees, but εKDV pixel values may differ
// across tile sizes: warm-started refinement can stop at a different
// (still ε-certified) interval than root refinement, so only τKDV hot
// masks are bit-identical for every tile size. For a fixed tile size,
// renders are deterministic and independent of the worker count — and of
// the engine layout: the tile-shared traversal is one code path over the
// Renderer interface, so the flat SoA engine and the pointer engine walk
// identical tile, sub-tile, and per-pixel refinement sequences (the
// conformance suite's flat-identity pass holds per tile size).
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
	weights      []float64 // per-point weights, nil = uniform
	fullRect     geom.Rect // full-dataset bounds when sharded (WithShard)
	tree         *kdtree.Tree
	ftree        *flat.Tree // SoA copy of tree (LayoutFlat)
	cfg          config
	bw           stats.Bandwidth
	proto        *bounds.Evaluator // nil for MethodExact / MethodZOrder
	sample       geom.Points       // Z-order sample (MethodZOrder)
	sampleWeight float64
	engines      sync.Pool
	tileScratch  sync.Pool    // *renderScratch for tile render workers
	scratchLive  atomic.Int64 // render scratches checked out and not yet returned

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
	var weights []float64
	if cfg.ptWeights != nil {
		if len(cfg.ptWeights) != pts.Len() {
			return nil, fmt.Errorf("quad: %d point weights for %d points", len(cfg.ptWeights), pts.Len())
		}
		var sum float64
		for i, w := range cfg.ptWeights {
			if w < 0 {
				return nil, fmt.Errorf("quad: negative point weight %g at index %d", w, i)
			}
			sum += w
		}
		if sum <= 0 {
			return nil, fmt.Errorf("quad: point weights sum to %g; need a positive total", sum)
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
		tree, err := kdtree.Build(pts, kdtree.Options{LeafSize: cfg.leafSize, Gram: ev.NeedsGram(), Weights: weights})
		if err != nil {
			return nil, err
		}
		kdv.tree = tree
		kdv.proto = ev
		if cfg.layout == LayoutFlat {
			ftree, err := flat.FromTree(tree)
			if err != nil {
				return nil, err
			}
			kdv.ftree = ftree
		}
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

// newRenderer constructs a render engine of the configured layout.
func (k *KDV) newRenderer() (engine.Renderer, error) {
	if k.cfg.layout == LayoutPointer {
		eng, err := engine.New(k.tree, k.proto.Clone())
		if err != nil {
			return nil, err
		}
		return engine.PointerRenderer{TileEngine: engine.NewTileEngine(eng)}, nil
	}
	feng, err := engine.NewFlat(k.ftree, k.proto.Clone())
	if err != nil {
		return nil, err
	}
	return engine.FlatRenderer{FlatTileEngine: engine.NewFlatTileEngine(feng)}, nil
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
