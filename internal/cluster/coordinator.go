package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/trace"
)

// CoordinatorConfig tunes the render fan-out. Zero fields take defaults.
type CoordinatorConfig struct {
	// Workers are the worker base addresses ("host:port" or full URLs).
	// Required, at least one.
	Workers []string
	// Shards is the partition width (default len(Workers)). The Z-order
	// range split is fixed at coordinator startup: every render is
	// partitioned into exactly this many shard RPCs.
	Shards int
	// Replicas bounds how many distinct workers a single shard's attempts
	// (retries and hedges) may be routed across (default 1: shard i is
	// pinned to worker i mod len(Workers) — maximal build-cache affinity
	// and strictly partitioned memory; a dead worker degrades its shards).
	// Raising it enables failover at the cost of workers holding replica
	// shard builds.
	Replicas int
	// MaxAttempts bounds tries per shard, including the first (default 3).
	MaxAttempts int
	// RetryBase/RetryMax shape the jittered exponential backoff between
	// attempts (defaults 25ms / 1s).
	RetryBase, RetryMax time.Duration
	// HedgeDelay, when positive, launches the hedged request after a fixed
	// delay. When zero, the delay adapts to the HedgeQuantile of recent
	// shard-render latencies (floored at 5ms until enough samples exist:
	// the fallback is 150ms).
	HedgeDelay time.Duration
	// HedgeQuantile selects the adaptive hedge trigger (default 0.95).
	HedgeQuantile float64
	// DisableHedge turns hedging off entirely.
	DisableHedge bool
	// ShardBudget caps the total time spent on one shard before the render
	// degrades without it. 0 derives the budget from the request deadline
	// (90% of the remaining time, leaving margin for merge + encode); with
	// neither a budget nor a deadline, shards are retried to MaxAttempts.
	ShardBudget time.Duration
	// Breaker tunes the per-worker circuit breakers.
	Breaker BreakerConfig
	// Client performs the worker HTTP requests (default http.DefaultClient
	// with a 0 timeout — per-attempt contexts bound each call). Tests
	// inject a faultinject.Transport here.
	Client *http.Client
	// Seed fixes the retry/hedge jitter for deterministic tests (0 → from
	// the wall clock).
	Seed int64

	// now is the breaker clock, injectable in tests.
	now func() time.Time
}

func (c CoordinatorConfig) withDefaults() (CoordinatorConfig, error) {
	if len(c.Workers) == 0 {
		return c, errors.New("cluster: coordinator needs at least one worker")
	}
	if c.Shards <= 0 {
		c.Shards = len(c.Workers)
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > len(c.Workers) {
		c.Replicas = len(c.Workers)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c, nil
}

// RenderRequest is one distributed εKDV render.
type RenderRequest struct {
	Dataset string
	N       int
	Seed    int64
	Kernel  quad.Kernel
	Method  quad.Method
	Eps     float64
	Res     quad.Resolution
	Window  quad.Window // zero → full-dataset window
}

// RenderResult is the merged outcome of a fan-out. When Complete is false,
// Values is the partial sum over the LiveShards live shards — graceful
// degradation, mirroring the serving layer's progressive partial rasters.
type RenderResult struct {
	Values               []float64
	Res                  quad.Resolution
	WindowMin, WindowMax [2]float64
	Stats                quad.RenderStats
	LiveShards           int
	TotalShards          int
	Complete             bool
	// Live lists the shard indices that contributed to Values, ascending.
	// A degraded merge's ground truth is the partial-sum oracle over
	// exactly these shards (quad.KDV.OraclePartial).
	Live []int
}

// ShardsHeader formats the k/n degraded-mode header value.
func (r *RenderResult) ShardsHeader() string {
	return fmt.Sprintf("%d/%d", r.LiveShards, r.TotalShards)
}

// Coordinator fans /render work out across workers by data shard and merges
// the rasters additively. It is safe for concurrent use.
type Coordinator struct {
	cfg      CoordinatorConfig
	workers  []string // normalized base URLs
	ring     *ring
	breakers []*breaker
	backoff  *backoff
	lat      *latencyTracker
	m        *clusterMetrics
}

// NewCoordinator constructs a coordinator over the given workers,
// registering its metric families on reg (which may be shared with the
// serving layer so one /metrics scrape covers both).
func NewCoordinator(cfg CoordinatorConfig, reg *telemetry.Registry) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	workers := make([]string, len(cfg.Workers))
	for i, w := range cfg.Workers {
		w = strings.TrimRight(w, "/")
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		workers[i] = w
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: workers,
		ring:    newRing(len(workers)),
		backoff: newBackoff(cfg.RetryBase, cfg.RetryMax, cfg.Seed),
		lat:     newLatencyTracker(256),
		m:       newClusterMetrics(reg, cfg.Workers),
	}
	c.breakers = make([]*breaker, len(workers))
	for i := range c.breakers {
		b := newBreaker(cfg.Breaker, cfg.now)
		idx := i
		b.onState = func(s BreakerState) { c.m.breakerState[idx].Set(int64(s)) }
		c.breakers[i] = b
	}
	return c, nil
}

// Shards reports the fixed partition width.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// Workers reports the normalized worker base URLs.
func (c *Coordinator) Workers() []string { return append([]string(nil), c.workers...) }

// BreakerStates reports every worker's breaker position (diagnostics).
func (c *Coordinator) BreakerStates() []BreakerState {
	out := make([]BreakerState, len(c.breakers))
	for i, b := range c.breakers {
		out[i] = b.State()
	}
	return out
}

// errShardFailed wraps the last error of an exhausted shard fetch.
type errShardFailed struct {
	shard ShardSpec
	err   error
}

func (e *errShardFailed) Error() string {
	return fmt.Sprintf("shard %s failed: %v", e.shard, e.err)
}
func (e *errShardFailed) Unwrap() error { return e.err }

// errBreakerOpen reports that every routable worker's breaker refused the
// attempt.
var errBreakerOpen = errors.New("cluster: all candidate workers' circuit breakers are open")

// shardResult is one shard's successful render.
type shardResult struct {
	values               []float64
	windowMin, windowMax [2]float64
	stats                quad.RenderStats
}

// RenderEps partitions the render across the configured shard count, fans
// the shard RPCs out to the workers, and merges the rasters additively in
// ascending shard order (so k-of-n partial merges are bit-identical to the
// same sum taken over the live shards alone). Shards that stay unreachable
// past budget are dropped: the result is flagged incomplete rather than the
// whole render failing. An error is returned only when no shard could be
// rendered at all, or ctx ended.
func (c *Coordinator) RenderEps(ctx context.Context, req RenderRequest) (*RenderResult, error) {
	if req.Method == quad.MethodZOrder {
		return nil, errors.New("cluster: method zorder is not shardable")
	}
	start := time.Now()
	sp, ctx := trace.StartSpan(ctx, "cluster.fanout")
	sp.SetAttrs(
		trace.Int("shards", c.cfg.Shards),
		trace.Int("workers", len(c.workers)),
		trace.Str("dataset", req.Dataset),
		trace.Str("res", req.Res.String()),
	)
	defer sp.End()

	// Every shard shares one budgeted context derived from the request
	// deadline, leaving headroom for merge + encode after the fan-out.
	shardCtx, cancel := c.shardContext(ctx)
	defer cancel()

	results := make([]*shardResult, c.cfg.Shards)
	errs := make([]error, c.cfg.Shards)
	var wg sync.WaitGroup
	for shard := 0; shard < c.cfg.Shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			spec := ShardSpec{Index: shard, Count: c.cfg.Shards}
			results[shard], errs[shard] = c.fetchShard(shardCtx, req, spec)
		}(shard)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	merged := &RenderResult{Res: req.Res, TotalShards: c.cfg.Shards}
	var firstErr error
	for shard := 0; shard < c.cfg.Shards; shard++ {
		r := results[shard]
		if r == nil {
			c.m.shardRenders["dead"].Inc()
			if firstErr == nil && errs[shard] != nil {
				firstErr = &errShardFailed{shard: ShardSpec{Index: shard, Count: c.cfg.Shards}, err: errs[shard]}
			}
			continue
		}
		c.m.shardRenders["ok"].Inc()
		if merged.Values == nil {
			merged.Values = make([]float64, len(r.values))
			merged.WindowMin, merged.WindowMax = r.windowMin, r.windowMax
		} else {
			if len(r.values) != len(merged.Values) {
				return nil, fmt.Errorf("cluster: shard %d raster size %d != %d", shard, len(r.values), len(merged.Values))
			}
			if r.windowMin != merged.WindowMin || r.windowMax != merged.WindowMax {
				return nil, fmt.Errorf("cluster: shard %d window %v..%v disagrees with %v..%v (workers out of sync?)",
					shard, r.windowMin, r.windowMax, merged.WindowMin, merged.WindowMax)
			}
		}
		// Additive merge in ascending shard order: densities are additive
		// over any partition of the dataset, and the fixed order makes
		// partial merges deterministic down to the bit.
		for i, v := range r.values {
			merged.Values[i] += v
		}
		addStats(&merged.Stats, r.stats)
		merged.Live = append(merged.Live, shard)
		merged.LiveShards++
	}
	merged.Complete = merged.LiveShards == merged.TotalShards
	merged.Stats.Elapsed = time.Since(start)
	sp.SetAttrs(
		trace.Int("live_shards", merged.LiveShards),
		trace.Str("outcome", map[bool]string{true: "complete", false: "partial"}[merged.Complete]),
	)
	if merged.LiveShards == 0 {
		c.m.fanouts["error"].Inc()
		if firstErr == nil {
			firstErr = errors.New("cluster: no live shards")
		}
		return nil, firstErr
	}
	if merged.Complete {
		c.m.fanouts["complete"].Inc()
	} else {
		c.m.fanouts["partial"].Inc()
	}
	return merged, nil
}

// shardContext derives the per-shard fetch budget from the request
// deadline (or the configured ShardBudget, whichever binds first).
func (c *Coordinator) shardContext(ctx context.Context) (context.Context, context.CancelFunc) {
	budget := c.cfg.ShardBudget
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		derived := rem - rem/10
		if budget <= 0 || derived < budget {
			budget = derived
		}
	}
	if budget <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, budget)
}

// fetchShard runs the full robustness pipeline for one shard: candidate
// routing, circuit-breaker gating, bounded retries with jittered backoff,
// per-attempt timeouts derived from the remaining budget, and hedging.
func (c *Coordinator) fetchShard(ctx context.Context, req RenderRequest, spec ShardSpec) (*shardResult, error) {
	sp, ctx := trace.StartSpan(ctx, "cluster.shard")
	sp.SetAttrs(trace.Str("shard", spec.String()))
	defer sp.End()

	p := &shardRenderParams{
		Dataset: req.Dataset, N: req.N, Seed: req.Seed,
		Kernel: req.Kernel, Method: req.Method,
		Eps: req.Eps, Res: req.Res, Window: req.Window, Shard: spec,
	}
	candidates := c.candidates(p)

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.m.retries.Inc()
			if err := sleepCtx(ctx, c.backoff.delay(attempt-1)); err != nil {
				sp.SetAttrs(trace.Str("outcome", "budget-exhausted"), trace.Int("attempts", attempt))
				return nil, lastErrOr(lastErr, err)
			}
		}
		res, err := c.attempt(ctx, p, candidates, attempt)
		if err == nil {
			sp.SetAttrs(trace.Str("outcome", "ok"), trace.Int("attempts", attempt+1))
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			sp.SetAttrs(trace.Str("outcome", "budget-exhausted"), trace.Int("attempts", attempt+1))
			return nil, lastErrOr(lastErr, ctx.Err())
		}
	}
	sp.SetAttrs(trace.Str("outcome", "exhausted"), trace.Int("attempts", c.cfg.MaxAttempts))
	return nil, lastErr
}

// candidates returns the shard's routable worker indices: the static
// primary (shard mod workers — the startup range split, maximal build-cache
// affinity) followed by the consistent-hash ring walk for the render key,
// bounded by Replicas. The ring makes failover sticky per (shard, viewport)
// key, so secondary builds concentrate instead of scattering.
func (c *Coordinator) candidates(p *shardRenderParams) []int {
	primary := p.Shard.Index % len(c.workers)
	if c.cfg.Replicas <= 1 {
		return []int{primary}
	}
	key := p.cacheKey() + "/" + p.Res.String() + "/" + fmt.Sprintf("%v", p.Window)
	out := []int{primary}
	for _, w := range c.ring.walk(key, len(c.workers)) {
		if len(out) >= c.cfg.Replicas {
			break
		}
		if w != primary {
			out = append(out, w)
		}
	}
	return out
}

// attempt performs one (possibly hedged) try of a shard render. The primary
// request goes to the attempt's candidate; if it has not resolved within
// the hedge delay, a second request races it on the next candidate (the
// same worker when only one is routable — a fresh connection still escapes
// a stuck socket). First success wins and the loser is cancelled; losers
// cancelled by the race are not recorded against their worker's breaker.
func (c *Coordinator) attempt(ctx context.Context, p *shardRenderParams, candidates []int, attempt int) (*shardResult, error) {
	primary, ok := c.pickWorker(candidates, attempt)
	if !ok {
		return nil, errBreakerOpen
	}

	actx, cancelAttempt := c.attemptContext(ctx, attempt)
	defer cancelAttempt()

	type outcome struct {
		res    *shardResult
		err    error
		worker int
		hedged bool
		dur    time.Duration
	}
	results := make(chan outcome, 2)
	launch := func(worker int, hedged bool, rctx context.Context) {
		start := time.Now()
		res, err := c.doRequest(rctx, worker, p, hedged)
		results <- outcome{res: res, err: err, worker: worker, hedged: hedged, dur: time.Since(start)}
	}

	// Both racers run under actx; the deferred cancelAttempt releases the
	// loser the moment the attempt returns with a winner (or gives up).
	go launch(primary, false, actx)

	var hedgeTimer *time.Timer
	var hedgeFired <-chan time.Time
	if !c.cfg.DisableHedge {
		hedgeTimer = time.NewTimer(c.hedgeDelay())
		defer hedgeTimer.Stop()
		hedgeFired = hedgeTimer.C
	}

	inFlight := 1
	var firstErr error
	for {
		select {
		case <-hedgeFired:
			hedgeFired = nil
			target, ok := c.hedgeTarget(candidates, attempt, primary)
			if !ok {
				continue
			}
			c.m.hedges.Inc()
			inFlight++
			go launch(target, true, actx)
		case out := <-results:
			definitive := out.err == nil || actx.Err() == nil
			if definitive {
				c.recordOutcome(out.worker, out.err == nil)
			}
			if out.err == nil {
				// Winner: cancel the loser; its cancellation is not held
				// against its worker.
				if out.hedged {
					c.m.hedgeWins.Inc()
				}
				c.lat.observe(out.dur)
				return out.res, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			inFlight--
			if inFlight == 0 {
				return nil, firstErr
			}
			// The other request is still racing; wait for it.
		case <-actx.Done():
			// Attempt timeout or shard budget: return now to keep the retry
			// loop on schedule — the launched goroutines resolve via their
			// cancelled contexts and the buffered channel, no leak. When the
			// shard budget is still live the timeout is definitive straggler
			// evidence against the primary (a hang must trip the breaker
			// just like an error); a budget/caller cancellation is not the
			// worker's fault and is not recorded.
			if ctx.Err() == nil {
				c.recordOutcome(primary, false)
			}
			return nil, actx.Err()
		}
	}
}

// pickWorker selects the attempt's primary: candidates are walked in order,
// rotated by attempt so consecutive retries prefer different workers when
// replicas allow, skipping candidates whose breaker refuses.
func (c *Coordinator) pickWorker(candidates []int, attempt int) (int, bool) {
	n := len(candidates)
	for i := 0; i < n; i++ {
		w := candidates[(attempt+i)%n]
		if c.breakers[w].Allow() {
			return w, true
		}
	}
	return 0, false
}

// hedgeTarget picks the hedge's worker: the next breaker-admitted candidate
// after the primary, or the primary itself again when it is the only
// routable worker (the breaker must re-admit it).
func (c *Coordinator) hedgeTarget(candidates []int, attempt, primary int) (int, bool) {
	n := len(candidates)
	for i := 1; i < n; i++ {
		w := candidates[(attempt+i)%n]
		if w != primary && c.breakers[w].Allow() {
			return w, true
		}
	}
	if c.breakers[primary].Allow() {
		return primary, true
	}
	return 0, false
}

// attemptContext bounds one attempt: the remaining shard budget is split
// evenly across the attempts left, so early attempts cannot starve the
// final one — "per-attempt timeouts derived from the request deadline".
func (c *Coordinator) attemptContext(ctx context.Context, attempt int) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	left := c.cfg.MaxAttempts - attempt
	if left < 1 {
		left = 1
	}
	rem := time.Until(dl)
	per := rem / time.Duration(left)
	if per <= 0 {
		per = time.Millisecond
	}
	return context.WithTimeout(ctx, per)
}

// hedgeDelay resolves the straggler trigger: fixed when configured, else
// the configured quantile of recent shard latencies.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	d := c.lat.quantile(c.cfg.HedgeQuantile, 16, 150*time.Millisecond)
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

func (c *Coordinator) recordOutcome(worker int, success bool) {
	c.breakers[worker].Record(success)
	if success {
		c.m.attempts[worker]["ok"].Inc()
	} else {
		c.m.attempts[worker]["error"].Inc()
	}
}

// doRequest performs one shard-render HTTP call, propagating the W3C trace
// context, and decodes the raster.
func (c *Coordinator) doRequest(ctx context.Context, worker int, p *shardRenderParams, hedged bool) (*shardResult, error) {
	sp, ctx := trace.StartSpan(ctx, "cluster.rpc")
	sp.SetAttrs(
		trace.Str("worker", c.cfg.Workers[worker]),
		trace.Str("shard", p.Shard.String()),
		trace.Str("hedged", fmt.Sprintf("%t", hedged)),
	)
	defer sp.End()

	url := c.workers[worker] + ShardRenderPath + "?" + p.query()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if tr := trace.FromContext(ctx); tr != nil {
		req.Header.Set(trace.Header, trace.FormatTraceparent(tr.ID(), sp.ID))
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		sp.SetAttrs(trace.Str("outcome", "transport-error"))
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		sp.SetAttrs(trace.Str("outcome", fmt.Sprintf("status-%d", resp.StatusCode)))
		return nil, fmt.Errorf("cluster: worker %s: %s: %s",
			c.cfg.Workers[worker], resp.Status, strings.TrimSpace(string(body)))
	}
	want := 8 * p.Res.W * p.Res.H
	buf, err := io.ReadAll(io.LimitReader(resp.Body, int64(want)+1))
	if err != nil {
		sp.SetAttrs(trace.Str("outcome", "read-error"))
		return nil, err
	}
	if len(buf) != want {
		sp.SetAttrs(trace.Str("outcome", "short-raster"))
		return nil, fmt.Errorf("cluster: worker %s: raster is %d bytes, want %d",
			c.cfg.Workers[worker], len(buf), want)
	}
	res := &shardResult{values: make([]float64, p.Res.W*p.Res.H)}
	for i := range res.values {
		res.values[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	if res.windowMin, res.windowMax, err = parseWindowHeader(resp.Header.Get(headerWindow)); err != nil {
		return nil, err
	}
	if v := resp.Header.Get(headerStats); v != "" {
		if err := json.Unmarshal([]byte(v), &res.stats); err != nil {
			return nil, fmt.Errorf("cluster: bad %s header: %w", headerStats, err)
		}
	}
	sp.SetAttrs(trace.Str("outcome", "ok"))
	return res, nil
}

func parseWindowHeader(v string) (mn, mx [2]float64, err error) {
	var vals [4]float64
	parts := strings.Split(v, ",")
	if len(parts) != 4 {
		return mn, mx, fmt.Errorf("cluster: bad %s header %q", headerWindow, v)
	}
	for i, s := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &vals[i]); err != nil {
			return mn, mx, fmt.Errorf("cluster: bad %s header %q", headerWindow, v)
		}
	}
	return [2]float64{vals[0], vals[1]}, [2]float64{vals[2], vals[3]}, nil
}

// addStats folds one shard's render work into the aggregate.
func addStats(dst *quad.RenderStats, s quad.RenderStats) {
	dst.Pixels += s.Pixels
	dst.Tiles += s.Tiles
	dst.TilesDecided += s.TilesDecided
	dst.Workers += s.Workers
	dst.SharedNodeEvals += s.SharedNodeEvals
	dst.FrontierPromotions += s.FrontierPromotions
	dst.Iterations += s.Iterations
	dst.NodesEvaluated += s.NodesEvaluated
	dst.LeafScans += s.LeafScans
	dst.PointsScanned += s.PointsScanned
	for i := range dst.DepthPixels {
		dst.DepthPixels[i] += s.DepthPixels[i]
	}
	dst.SharedElapsed += s.SharedElapsed
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func lastErrOr(last, fallback error) error {
	if last != nil {
		return last
	}
	return fallback
}
