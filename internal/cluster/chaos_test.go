package cluster_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
	. "github.com/quadkdv/quad/internal/cluster"
	"github.com/quadkdv/quad/internal/cluster/faultinject"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/serve"
	"github.com/quadkdv/quad/internal/telemetry"
)

// The chaos suite drives the coordinator's robustness machinery — breakers,
// retries, hedges, partial merges — through the deterministic fault-injection
// transport against real in-process workers: serving-layer servers mounting
// the shard route, exactly as kdvserve -worker runs them.

// lockedClock is a race-safe manual clock for the coordinator's breakers.
type lockedClock struct {
	mu sync.Mutex
	t  time.Time
}

func newLockedClock() *lockedClock {
	return &lockedClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *lockedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *lockedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// chaosRig is one coordinator wired through a fault-injection transport to n
// real in-process workers.
type chaosRig struct {
	coord   *Coordinator
	fi      *faultinject.Transport
	servers []*httptest.Server
	hosts   []string // URL hosts, the fault-injection keys
	reg     *telemetry.Registry
	clock   *lockedClock
}

func newChaosRig(t *testing.T, workers int, mutate func(*CoordinatorConfig)) *chaosRig {
	t.Helper()
	rig := &chaosRig{
		fi:    faultinject.New(nil, 1),
		reg:   telemetry.NewRegistry(),
		clock: newLockedClock(),
	}
	urls := make([]string, workers)
	for i := 0; i < workers; i++ {
		w := serve.NewServerWith(serve.Config{})
		t.Cleanup(func() { w.Close() })
		srv := httptest.NewServer(w.ShardHandler())
		t.Cleanup(srv.Close)
		rig.servers = append(rig.servers, srv)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		rig.hosts = append(rig.hosts, u.Host)
		urls[i] = srv.URL
	}
	cfg := CoordinatorConfig{
		Workers:      urls,
		Client:       &http.Client{Transport: rig.fi},
		Seed:         1,
		DisableHedge: true,
		RetryBase:    time.Millisecond,
		RetryMax:     4 * time.Millisecond,
		Breaker: BreakerConfig{
			Window: 8, FailureRate: 0.5, MinSamples: 2,
			Cooldown: time.Minute, HalfOpenProbes: 1,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := NewCoordinator(WithClock(cfg, rig.clock.Now), rig.reg)
	if err != nil {
		t.Fatal(err)
	}
	rig.coord = coord
	return rig
}

// chaosRequest is the shared small render: cheap enough for a test matrix,
// big enough that shard rasters are nontrivial.
func chaosRequest() RenderRequest {
	return RenderRequest{
		Dataset: "crime", N: 400, Seed: 7,
		Kernel: quad.Gaussian, Method: quad.MethodQuadratic,
		Eps: 0.05, Res: quad.Resolution{W: 24, H: 24},
	}
}

// localShardValues renders one shard of the request in-process — the oracle
// the distributed path must match bit for bit.
func localShardValues(t *testing.T, req RenderRequest, shard, count int) []float64 {
	t.Helper()
	pts, err := dataset.Generate(req.Dataset, req.N, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pts = dataset.First2D(pts)
	opts := []quad.Option{quad.WithKernel(req.Kernel), quad.WithMethod(req.Method)}
	if count > 1 {
		opts = append(opts, quad.WithShard(shard, count))
	}
	k, err := quad.New(pts.Coords, pts.Dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := k.Render(context.Background(), quad.Request{Res: req.Res, Window: req.Window, Eps: req.Eps})
	if err != nil {
		t.Fatal(err)
	}
	return r.Density.Values
}

// mergeAscending sums shard rasters in ascending shard order, the
// coordinator's merge rule.
func mergeAscending(rasters ...[]float64) []float64 {
	out := make([]float64, len(rasters[0]))
	for _, r := range rasters {
		for i, v := range r {
			out[i] += v
		}
	}
	return out
}

func assertBitIdentical(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: pixel %d differs: %x vs %x (%g vs %g)",
				label, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

func TestChaosBaselineCompleteMergeMatchesOracle(t *testing.T) {
	rig := newChaosRig(t, 2, func(c *CoordinatorConfig) { c.Shards = 2 })
	req := chaosRequest()
	res, err := rig.coord.RenderEps(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.LiveShards != 2 {
		t.Fatalf("fault-free fan-out not complete: %+v", res)
	}
	want := mergeAscending(
		localShardValues(t, req, 0, 2),
		localShardValues(t, req, 1, 2),
	)
	assertBitIdentical(t, res.Values, want, "2-shard complete merge")
	if res.Stats.Pixels == 0 || res.Stats.NodesEvaluated == 0 {
		t.Fatalf("merged stats not aggregated: %+v", res.Stats)
	}
}

func TestChaosBreakerTripsThenRecovers(t *testing.T) {
	rig := newChaosRig(t, 1, func(c *CoordinatorConfig) {
		c.Shards = 1
		c.MaxAttempts = 1
	})
	req := chaosRequest()
	boom := errors.New("injected: connection refused")
	rig.fi.SetDefault(rig.hosts[0], faultinject.Action{Err: boom})

	// Two failed renders reach MinSamples=2 at 100% failure rate: trips.
	for i := 0; i < 2; i++ {
		if _, err := rig.coord.RenderEps(context.Background(), req); err == nil {
			t.Fatalf("render %d succeeded against a dead worker", i)
		}
	}
	if got := rig.coord.BreakerStates()[0]; got != BreakerOpen {
		t.Fatalf("breaker = %v after repeated failures, want open", got)
	}

	// Open breaker: the render fails fast without touching the worker.
	calls := rig.fi.Calls(rig.hosts[0])
	if _, err := rig.coord.RenderEps(context.Background(), req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("render through open breaker: err = %v, want ErrBreakerOpen", err)
	}
	if got := rig.fi.Calls(rig.hosts[0]); got != calls {
		t.Fatalf("open breaker let %d requests through", got-calls)
	}

	// Worker heals, cooldown elapses: the half-open probe succeeds and the
	// breaker closes.
	rig.fi.SetDefault(rig.hosts[0], faultinject.Action{})
	rig.clock.Advance(61 * time.Second)
	res, err := rig.coord.RenderEps(context.Background(), req)
	if err != nil {
		t.Fatalf("render after recovery: %v", err)
	}
	if !res.Complete {
		t.Fatalf("post-recovery render incomplete: %+v", res)
	}
	if got := rig.coord.BreakerStates()[0]; got != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", got)
	}
}

func TestChaosHedgeBeatsHungWorker(t *testing.T) {
	rig := newChaosRig(t, 2, func(c *CoordinatorConfig) {
		c.Shards = 2
		c.Replicas = 2
		c.DisableHedge = false
		c.HedgeDelay = 20 * time.Millisecond
		c.MaxAttempts = 1
	})
	req := chaosRequest()
	// Worker 0 (primary for shard 0) accepts and never answers.
	rig.fi.SetDefault(rig.hosts[0], faultinject.Action{Hang: true})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rig.coord.RenderEps(ctx, req)
	if err != nil {
		t.Fatalf("hedged render: %v", err)
	}
	if !res.Complete {
		t.Fatalf("hedged render incomplete: %d/%d", res.LiveShards, res.TotalShards)
	}
	if got := rig.coord.Hedges(); got == 0 {
		t.Fatal("no hedge was launched against the hung worker")
	}
	if got := rig.coord.HedgeWins(); got == 0 {
		t.Fatal("the hedge never won against the hung worker")
	}
	// First-success-wins must not double-count: the merged raster is still
	// exactly the 2-shard oracle sum.
	want := mergeAscending(
		localShardValues(t, req, 0, 2),
		localShardValues(t, req, 1, 2),
	)
	assertBitIdentical(t, res.Values, want, "hedged merge")
}

func TestChaosKilledWorkerDegradesToPartial(t *testing.T) {
	rig := newChaosRig(t, 2, func(c *CoordinatorConfig) {
		c.Shards = 2
		c.MaxAttempts = 2
	})
	req := chaosRequest()
	// Worker 1 (primary for shard 1; Replicas=1, so no failover) is dead.
	rig.fi.SetDefault(rig.hosts[1], faultinject.Action{Err: errors.New("injected: worker killed")})

	res, err := rig.coord.RenderEps(context.Background(), req)
	if err != nil {
		t.Fatalf("degraded render returned an error instead of a partial raster: %v", err)
	}
	if res.Complete {
		t.Fatal("render claims completeness with a dead worker")
	}
	if res.LiveShards != 1 || res.TotalShards != 2 {
		t.Fatalf("live/total = %d/%d, want 1/2", res.LiveShards, res.TotalShards)
	}
	if got := res.ShardsHeader(); got != "1/2" {
		t.Fatalf("ShardsHeader() = %q, want 1/2", got)
	}
	// The partial raster is bit-identical to the oracle restricted to the
	// live shard.
	assertBitIdentical(t, res.Values, localShardValues(t, req, 0, 2), "partial merge")
}

func TestChaosPartialMergeBitIdenticalKofN(t *testing.T) {
	// 4 shards across 2 workers (shard i → worker i%2); killing worker 1
	// kills shards 1 and 3, and the surviving merge must equal the oracle
	// sum over shards {0, 2} in ascending order, bit for bit.
	rig := newChaosRig(t, 2, func(c *CoordinatorConfig) {
		c.Shards = 4
		c.MaxAttempts = 1
	})
	req := chaosRequest()
	rig.fi.SetDefault(rig.hosts[1], faultinject.Action{Err: errors.New("injected: worker killed")})

	res, err := rig.coord.RenderEps(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.LiveShards != 2 || res.ShardsHeader() != "2/4" {
		t.Fatalf("want a 2/4 partial, got %d/%d complete=%v",
			res.LiveShards, res.TotalShards, res.Complete)
	}
	want := mergeAscending(
		localShardValues(t, req, 0, 4),
		localShardValues(t, req, 2, 4),
	)
	assertBitIdentical(t, res.Values, want, "2-of-4 partial merge")
}

func TestChaosTransientErrorIsRetried(t *testing.T) {
	rig := newChaosRig(t, 1, func(c *CoordinatorConfig) {
		c.Shards = 1
		c.MaxAttempts = 3
		c.Breaker.MinSamples = 8 // keep the breaker out of this test's way
	})
	req := chaosRequest()
	// Exactly two transient failures (Repeat=1 → the action serves 2
	// requests), then the worker is healthy.
	rig.fi.Push(rig.hosts[0], faultinject.Action{Err: errors.New("injected: transient"), Repeat: 1})

	res, err := rig.coord.RenderEps(context.Background(), req)
	if err != nil {
		t.Fatalf("retried render: %v", err)
	}
	if !res.Complete {
		t.Fatalf("retried render incomplete: %+v", res)
	}
	if got := rig.fi.Calls(rig.hosts[0]); got != 3 {
		t.Fatalf("worker saw %d calls, want 3 (two failures + success)", got)
	}
	if got := rig.coord.Retries(); got != 2 {
		t.Fatalf("kdv_cluster_retries_total = %d, want 2", got)
	}
}

func TestChaosRetriesRespectDeadline(t *testing.T) {
	rig := newChaosRig(t, 1, func(c *CoordinatorConfig) {
		c.Shards = 1
		c.MaxAttempts = 3
	})
	req := chaosRequest()
	rig.fi.SetDefault(rig.hosts[0], faultinject.Action{Hang: true})

	deadline := 400 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := rig.coord.RenderEps(ctx, req)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("render against a hung worker succeeded")
	}
	// The per-attempt timeouts are carved from the request deadline, so the
	// whole retry ladder must finish close to it — not MaxAttempts× past it.
	if elapsed > deadline+600*time.Millisecond {
		t.Fatalf("retry ladder overshot the deadline: elapsed %v for a %v budget", elapsed, deadline)
	}
}

func TestChaosFlappingWorkerSeededDeterminism(t *testing.T) {
	// A 50% flapping worker under a fixed transport seed produces the same
	// call sequence on every run; with retries the render still completes.
	run := func() (int, bool) {
		rig := newChaosRig(t, 1, func(c *CoordinatorConfig) {
			c.Shards = 1
			c.MaxAttempts = 6
			c.Breaker.MinSamples = 32
		})
		req := chaosRequest()
		rig.fi.SetDefault(rig.hosts[0], faultinject.Action{FailProb: 0.5})
		res, err := rig.coord.RenderEps(context.Background(), req)
		if err != nil {
			t.Fatalf("flapping render: %v", err)
		}
		return rig.fi.Calls(rig.hosts[0]), res.Complete
	}
	calls1, ok1 := run()
	calls2, ok2 := run()
	if !ok1 || !ok2 {
		t.Fatal("flapping render did not complete")
	}
	if calls1 != calls2 {
		t.Fatalf("seeded flapping is not deterministic: %d calls vs %d", calls1, calls2)
	}
}

func TestChaosSlowWorkerStillMerges(t *testing.T) {
	// Injected latency (well under any timeout) must not change the merged
	// bits — only the wall clock.
	rig := newChaosRig(t, 2, func(c *CoordinatorConfig) { c.Shards = 2 })
	req := chaosRequest()
	rig.fi.SetDefault(rig.hosts[0], faultinject.Action{Delay: 30 * time.Millisecond})

	res, err := rig.coord.RenderEps(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("slow-worker render incomplete: %+v", res)
	}
	want := mergeAscending(
		localShardValues(t, req, 0, 2),
		localShardValues(t, req, 1, 2),
	)
	assertBitIdentical(t, res.Values, want, "slow-worker merge")
}

func TestChaosAllWorkersDeadIsAnError(t *testing.T) {
	rig := newChaosRig(t, 2, func(c *CoordinatorConfig) {
		c.Shards = 2
		c.MaxAttempts = 1
	})
	boom := errors.New("injected: cluster down")
	rig.fi.SetDefault(rig.hosts[0], faultinject.Action{Err: boom})
	rig.fi.SetDefault(rig.hosts[1], faultinject.Action{Err: boom})
	_, err := rig.coord.RenderEps(context.Background(), chaosRequest())
	if err == nil {
		t.Fatal("render with zero live shards returned a raster")
	}
	var sf *ErrShardFailed
	if !errors.As(err, &sf) {
		t.Fatalf("error %v does not identify the failing shard", err)
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Fatalf("error %q does not name the shard", err)
	}
}
