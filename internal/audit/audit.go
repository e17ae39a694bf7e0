// Package audit is the production shadow-auditor behind QUAD's accuracy
// SLO: for a sampled fraction of completed renders it re-evaluates a few
// random pixels with the exact Kahan oracle on a background worker pool and
// checks that the served values actually honor the advertised guarantee —
// relative error ≤ ε for εKDV, exact τ classification for τKDV.
//
// The design keeps the serving path unharmed: sampling copies K pixel
// values at enqueue time, the queue is budget-capped (over-budget jobs are
// dropped and counted, never blocking), and all oracle work happens
// off-request on the pool. The tolerances are the offline conformance
// suite's, from one place (internal/oracle): ε, or oracle.ExactTol for
// exact renders, plus a rounding slack of a few ulps of each pixel's exact
// value (oracle.RoundingSlack), and oracle.FPMargin around τ. The slack is
// relative, so a tail pixel far below the raster's maximum is held to ε
// like any other; honest renders register no violations, while a broken
// bound is caught by the planted-bug self-test.
package audit

import (
	"log/slog"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/quadkdv/quad/internal/oracle"
	"github.com/quadkdv/quad/internal/telemetry"
)

// Kind distinguishes the two guarantees the auditor checks.
type Kind string

const (
	// KindEps audits the εKDV guarantee |v − F_P(q)| ≤ ε·F_P(q).
	KindEps Kind = "eps"
	// KindTau audits τKDV classification: hot iff F_P(q) ≥ τ.
	KindTau Kind = "tau"
)

// Endpoints are the serving surfaces that submit audit jobs; families are
// pre-registered for each so scrape output is complete and deterministic
// from boot.
var Endpoints = []string{"render", "cluster", "hotspots", "tile"}

// SkipReasons are the pre-registered causes for skipping an audit.
var SkipReasons = []string{"zorder", "degraded"}

// ratioBuckets grade the observed relative error as a fraction of ε:
// anything ≤ 1 honors the guarantee; the over-1 buckets resolve how badly a
// violation missed.
var ratioBuckets = []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1, 1.5, 2, 10}

// Sample is one audited pixel: its raster coordinate (for the violation
// report), its data-space query point (computed by the producer with the
// render's own grid, so it is bit-identical to what the engine evaluated),
// and the served value or classification.
type Sample struct {
	X, Y  int
	Q     [2]float64
	Value float64 // KindEps: served density
	Hot   bool    // KindTau: served classification
}

// Job is one completed render to audit. Exact recomputes the ground-truth
// density at a query point — the producer binds it to the right oracle
// (full dataset, or the partial sum over live shards for degraded merges).
type Job struct {
	Endpoint string // "render", "cluster", "hotspots", "tile"
	Dataset  string
	Method   string
	Kind     Kind
	Eps      float64 // KindEps: the advertised relative error bound
	Tau      float64 // KindTau: the classification threshold
	TraceID  string
	Samples  []Sample
	Exact    func(q []float64) float64
}

// Violation is one detected guarantee breach.
type Violation struct {
	Endpoint string  `json:"endpoint"`
	Dataset  string  `json:"dataset"`
	Method   string  `json:"method"`
	Kind     string  `json:"kind"`
	TraceID  string  `json:"trace_id,omitempty"`
	X        int     `json:"x"`
	Y        int     `json:"y"`
	Observed float64 `json:"observed"`
	Exact    float64 `json:"exact"`
	Eps      float64 `json:"eps,omitempty"`
	Tau      float64 `json:"tau,omitempty"`
	RelErr   float64 `json:"rel_err"`
	Hot      bool    `json:"hot,omitempty"`
}

// Config configures New.
type Config struct {
	// Fraction of completed renders to audit, in [0, 1]. ≤ 0 disables
	// sampling (ShouldAudit always returns false).
	Fraction float64
	// Pixels is the number of random pixels recomputed per audited render
	// (default 8).
	Pixels int
	// Budget caps the job queue: submissions beyond it are dropped and
	// counted, never blocking the serving path (default 64).
	Budget int
	// Workers sizes the background oracle pool (default 1).
	Workers int
	// Seed fixes the sampling stream (0 picks a fixed default); audits are
	// then deterministic for a deterministic request sequence.
	Seed int64
	// HardFail latches the auditor into a failed state on the first
	// violation — the mode tests and CI harnesses assert on.
	HardFail bool
	// OnViolation, when set, runs synchronously on the audit worker for
	// every violation.
	OnViolation func(Violation)
	Registry    *telemetry.Registry
	Logger      *slog.Logger
}

// Auditor runs shadow accuracy checks on a budget-capped background pool.
// A nil *Auditor is a valid disabled auditor: every method is a no-op.
type Auditor struct {
	cfg  Config
	log  *slog.Logger
	jobs chan Job
	wg   sync.WaitGroup

	closed   atomic.Bool
	inflight atomic.Int64

	randMu sync.Mutex
	rng    *rand.Rand

	checks     func(endpoint string) *telemetry.Counter
	pixels     func(endpoint string) *telemetry.Counter
	violations func(endpoint, kind string) *telemetry.Counter
	dropped    *telemetry.Counter
	skipped    func(reason string) *telemetry.Counter
	queueDepth *telemetry.Gauge
	ratioHist  *telemetry.Histogram
	maxRatioG  *telemetry.FloatGauge

	mu         sync.Mutex
	maxRatio   float64
	recent     []Violation // newest last, bounded ring
	hardFailed bool
}

const recentViolations = 16

// New builds and starts an auditor. The kdv_audit_* metric families are
// pre-registered on cfg.Registry for every endpoint so scrapes are complete
// from the first request.
func New(cfg Config) *Auditor {
	if cfg.Pixels <= 0 {
		cfg.Pixels = 8
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 20200614
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a := &Auditor{
		cfg:  cfg,
		log:  log,
		jobs: make(chan Job, cfg.Budget),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	const (
		checksName     = "kdv_audit_checks_total"
		checksHelp     = "Completed shadow audits of served renders."
		pixelsName     = "kdv_audit_pixels_total"
		pixelsHelp     = "Pixels recomputed against the exact oracle."
		violationsName = "kdv_audit_violations_total"
		violationsHelp = "Served pixels that breached the advertised guarantee."
	)
	a.checks = func(ep string) *telemetry.Counter {
		return reg.Counter(checksName, checksHelp, telemetry.L("endpoint", ep))
	}
	a.pixels = func(ep string) *telemetry.Counter {
		return reg.Counter(pixelsName, pixelsHelp, telemetry.L("endpoint", ep))
	}
	a.violations = func(ep, kind string) *telemetry.Counter {
		return reg.Counter(violationsName, violationsHelp,
			telemetry.L("endpoint", ep), telemetry.L("kind", kind))
	}
	a.skipped = func(reason string) *telemetry.Counter {
		return reg.Counter("kdv_audit_skipped_total",
			"Renders not auditable (probabilistic or degraded output).",
			telemetry.L("reason", reason))
	}
	for _, ep := range Endpoints {
		a.checks(ep)
		a.pixels(ep)
		a.violations(ep, string(KindEps))
		a.violations(ep, string(KindTau))
	}
	for _, r := range SkipReasons {
		a.skipped(r)
	}
	a.dropped = reg.Counter("kdv_audit_dropped_total",
		"Audit jobs dropped because the queue budget was full.")
	a.queueDepth = reg.Gauge("kdv_audit_queue_depth",
		"Audit jobs queued or being checked.")
	a.ratioHist = reg.Histogram("kdv_audit_rel_error_ratio",
		"Observed relative error as a fraction of the guarantee (>1 = violation).",
		ratioBuckets)
	a.maxRatioG = reg.FloatGauge("kdv_audit_max_rel_error_ratio",
		"Worst observed relative error as a fraction of the guarantee.")
	for i := 0; i < cfg.Workers; i++ {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			for job := range a.jobs {
				a.check(job)
				a.inflight.Add(-1)
				a.queueDepth.Dec()
			}
		}()
	}
	return a
}

// ShouldAudit flips the sampling coin: true for ~Fraction of calls.
func (a *Auditor) ShouldAudit() bool {
	if a == nil || a.cfg.Fraction <= 0 || a.closed.Load() {
		return false
	}
	if a.cfg.Fraction >= 1 {
		return true
	}
	a.randMu.Lock()
	v := a.rng.Float64()
	a.randMu.Unlock()
	return v < a.cfg.Fraction
}

// SamplePixels returns up to Pixels distinct random indices in [0, n).
func (a *Auditor) SamplePixels(n int) []int {
	if a == nil || n <= 0 {
		return nil
	}
	k := a.cfg.Pixels
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	a.randMu.Lock()
	defer a.randMu.Unlock()
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := a.rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// Skip counts one unauditable render (MethodZOrder's probabilistic
// guarantee, degraded progressive partials).
func (a *Auditor) Skip(reason string) {
	if a == nil {
		return
	}
	a.skipped(reason).Inc()
}

// Submit enqueues a job for background checking. It never blocks: when the
// queue budget is exhausted the job is dropped and counted. Returns whether
// the job was accepted.
func (a *Auditor) Submit(job Job) bool {
	if a == nil || a.closed.Load() || job.Exact == nil || len(job.Samples) == 0 {
		return false
	}
	select {
	case a.jobs <- job:
		a.inflight.Add(1)
		a.queueDepth.Inc()
		return true
	default:
		a.dropped.Inc()
		return false
	}
}

// check runs the oracle over one job's samples.
func (a *Auditor) check(job Job) {
	q := make([]float64, 2)
	worst := 0.0
	for _, s := range job.Samples {
		q[0], q[1] = s.Q[0], s.Q[1]
		exact := job.Exact(q)
		a.pixels(job.Endpoint).Inc()
		switch job.Kind {
		case KindTau:
			exactHot := exact >= job.Tau
			if exactHot == s.Hot {
				continue
			}
			// Mirror the conformance suite: a classification is excused when
			// the exact density sits within floating-point distance of τ.
			if math.Abs(exact-job.Tau) <= oracle.FPMargin*math.Max(math.Abs(exact), math.Abs(job.Tau)) {
				continue
			}
			a.violate(job, s, exact, 0)
		default: // KindEps
			allowed := math.Max(job.Eps, oracle.ExactTol)*exact + oracle.RoundingSlack(exact)
			diff := math.Abs(s.Value - exact)
			ratio := diff / allowed
			if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
				ratio = 0
				if diff > 0 {
					ratio = math.Inf(1)
				}
			}
			a.ratioHist.Observe(ratio)
			worst = math.Max(worst, ratio)
			if diff > allowed {
				a.violate(job, s, exact, ratio)
			}
		}
	}
	a.checks(job.Endpoint).Inc()
	if worst > 0 {
		a.mu.Lock()
		if worst > a.maxRatio {
			a.maxRatio = worst
			a.maxRatioG.Set(worst)
		}
		a.mu.Unlock()
	}
}

// violate records one guarantee breach: counter, bounded recent ring,
// structured log with the offending trace and pixel, hard-fail latch, and
// the synchronous callback.
func (a *Auditor) violate(job Job, s Sample, exact, ratio float64) {
	relErr := math.Inf(1)
	if exact != 0 {
		relErr = math.Abs(s.Value-exact) / math.Abs(exact)
	}
	v := Violation{
		Endpoint: job.Endpoint,
		Dataset:  job.Dataset,
		Method:   job.Method,
		Kind:     string(job.Kind),
		TraceID:  job.TraceID,
		X:        s.X,
		Y:        s.Y,
		Observed: s.Value,
		Exact:    exact,
		Eps:      job.Eps,
		Tau:      job.Tau,
		RelErr:   relErr,
		Hot:      s.Hot,
	}
	a.violations(job.Endpoint, string(job.Kind)).Inc()
	a.mu.Lock()
	a.recent = append(a.recent, v)
	if len(a.recent) > recentViolations {
		a.recent = a.recent[len(a.recent)-recentViolations:]
	}
	if a.cfg.HardFail {
		a.hardFailed = true
	}
	a.mu.Unlock()
	a.log.Error("kdv accuracy guarantee violated",
		"endpoint", v.Endpoint,
		"dataset", v.Dataset,
		"method", v.Method,
		"kind", v.Kind,
		"trace_id", v.TraceID,
		"pixel_x", v.X,
		"pixel_y", v.Y,
		"observed", v.Observed,
		"exact", v.Exact,
		"eps", v.Eps,
		"tau", v.Tau,
		"rel_err", v.RelErr,
		"ratio", ratio,
	)
	if a.cfg.OnViolation != nil {
		a.cfg.OnViolation(v)
	}
}

// PixelsChecked sums the audited-pixel counters across endpoints — the
// denominator of the accuracy SLO.
func (a *Auditor) PixelsChecked() uint64 {
	if a == nil {
		return 0
	}
	var total uint64
	for _, ep := range Endpoints {
		total += a.pixels(ep).Value()
	}
	return total
}

// ViolationCount sums the violation counters across endpoints and kinds.
func (a *Auditor) ViolationCount() uint64 {
	if a == nil {
		return 0
	}
	var total uint64
	for _, ep := range Endpoints {
		total += a.violations(ep, string(KindEps)).Value()
		total += a.violations(ep, string(KindTau)).Value()
	}
	return total
}

// ChecksCount sums the completed-audit counters across endpoints.
func (a *Auditor) ChecksCount() uint64 {
	if a == nil {
		return 0
	}
	var total uint64
	for _, ep := range Endpoints {
		total += a.checks(ep).Value()
	}
	return total
}

// HardFailed reports whether a violation latched the hard-fail state.
func (a *Auditor) HardFailed() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hardFailed
}

// Pending returns the number of submitted jobs not yet fully checked.
func (a *Auditor) Pending() int {
	if a == nil {
		return 0
	}
	return int(a.inflight.Load())
}

// Close stops accepting jobs, drains the queue, and waits for the workers.
func (a *Auditor) Close() {
	if a == nil || !a.closed.CompareAndSwap(false, true) {
		return
	}
	close(a.jobs)
	a.wg.Wait()
}

// Snapshot is the auditor's state for the ops endpoint.
type Snapshot struct {
	Enabled          bool        `json:"enabled"`
	Fraction         float64     `json:"fraction"`
	PixelsPerAudit   int         `json:"pixels_per_audit"`
	Budget           int         `json:"budget"`
	Pending          int         `json:"pending"`
	Checks           uint64      `json:"checks"`
	PixelsChecked    uint64      `json:"pixels_checked"`
	Violations       uint64      `json:"violations"`
	MaxRelErrRatio   float64     `json:"max_rel_error_ratio"`
	HardFailed       bool        `json:"hard_failed"`
	RecentViolations []Violation `json:"recent_violations"`
}

// State returns the current Snapshot (nil auditor: disabled zero state).
func (a *Auditor) State() Snapshot {
	if a == nil {
		return Snapshot{RecentViolations: []Violation{}}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	recent := make([]Violation, len(a.recent))
	copy(recent, a.recent)
	return Snapshot{
		Enabled:          a.cfg.Fraction > 0,
		Fraction:         a.cfg.Fraction,
		PixelsPerAudit:   a.cfg.Pixels,
		Budget:           a.cfg.Budget,
		Pending:          int(a.inflight.Load()),
		Checks:           a.ChecksCount(),
		PixelsChecked:    a.PixelsChecked(),
		Violations:       a.ViolationCount(),
		MaxRelErrRatio:   a.maxRatio,
		HardFailed:       a.hardFailed,
		RecentViolations: recent,
	}
}
