package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/cluster"
	"github.com/quadkdv/quad/internal/lru"
)

// slowPath is a render that takes hundreds of milliseconds (an exact scan
// of 20k points per pixel) — long enough that admission, cancellation and
// deadline behavior is observable, short enough for tests.
const slowPath = "/render?dataset=crime&n=20000&method=exact&res=48x48"

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func decodeError(t *testing.T, resp *http.Response) errorResponse {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if e.Status != resp.StatusCode {
		t.Errorf("body status %d != response status %d", e.Status, resp.StatusCode)
	}
	if e.Error == "" {
		t.Error("empty error message")
	}
	return e
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("status = %v, want ok", body["status"])
	}
}

// TestErrorResponsesAreJSON re-walks the 4xx paths asserting the
// structured error contract, not just the status code.
func TestErrorResponsesAreJSON(t *testing.T) {
	ts := testServer(t)
	cases := []string{
		"/render",
		"/render?dataset=nope",
		"/render?dataset=crime&res=banana",
		"/render?dataset=crime&res=999999x999999",
		"/render?dataset=crime&eps=7",
		"/render?dataset=crime&kernel=nope",
		"/render?dataset=crime&method=nope",
		"/render?dataset=crime&n=0",
		"/render?dataset=crime&seed=abc",
		"/render?dataset=crime&res=16x12&bbox=5,5,5,9",
		"/hotspots?dataset=crime&tau=banana",
		"/progressive?dataset=crime&budget=banana",
		"/progressive?dataset=crime&budget=5h",
		"/progressive?dataset=crime&res=16x12&bbox=1,2,3",
	}
	for _, path := range cases {
		resp := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
			continue
		}
		decodeError(t, resp)
	}
}

// TestProgressiveBBox verifies /progressive actually honors the pan/zoom
// window: run to completion it must produce byte-identical PNG output to
// /render over the same window (same exact per-pixel evaluations).
func TestProgressiveBBox(t *testing.T) {
	ts := testServer(t)
	const params = "dataset=crime&n=3000&method=exact&res=24x16&bbox=10,10,40,40"
	full := get(t, ts.URL+"/render?"+params)
	if full.StatusCode != http.StatusOK {
		t.Fatalf("render status %d", full.StatusCode)
	}
	want, err := io.ReadAll(full.Body)
	if err != nil {
		t.Fatal(err)
	}
	prog := get(t, ts.URL+"/progressive?"+params+"&budget=50s")
	if prog.StatusCode != http.StatusOK {
		t.Fatalf("progressive status %d", prog.StatusCode)
	}
	if prog.Header.Get("X-KDV-Complete") != "true" {
		t.Fatal("progressive render did not complete")
	}
	got, err := io.ReadAll(prog.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("progressive bbox render differs from windowed full render")
	}
}

// TestAdmission429 fills the single render slot (queueing disabled) and
// asserts the next request is rejected with 429 + Retry-After.
func TestAdmission429(t *testing.T) {
	s := NewServerWith(Config{DefaultN: 3000, MaxConcurrent: 1, MaxQueue: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+slowPath, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.adm.inFlight() == 1 }, "slow render in flight")

	resp := get(t, ts.URL+"/render?dataset=crime&n=3000&res=8x8")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	decodeError(t, resp)

	cancel() // abandon the slow render
	<-done
	waitFor(t, 5*time.Second, func() bool { return s.adm.inFlight() == 0 }, "slot release after cancel")
}

// TestClientDisconnectCancelsRender aborts a slow request client-side and
// asserts the server-side render goroutine exits promptly (observed via
// the admission slot being released long before the full render time).
func TestClientDisconnectCancelsRender(t *testing.T) {
	s := NewServerWith(Config{DefaultN: 3000, MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+slowPath, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.adm.inFlight() == 1 }, "slow render in flight")

	start := time.Now()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want Canceled", err)
	}
	// The full render takes hundreds of ms; the worker must exit within
	// roughly one row of work after the disconnect.
	waitFor(t, 2*time.Second, func() bool { return s.adm.inFlight() == 0 }, "render slot release")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("render still running %s after disconnect", elapsed)
	}
}

// TestDeadlineDegradesToPartial gives /render a deadline far below its
// render time and asserts graceful degradation: a 200 carrying the
// progressive partial raster, flagged incomplete.
func TestDeadlineDegradesToPartial(t *testing.T) {
	s := NewServerWith(Config{
		DefaultN:       3000,
		RequestTimeout: 100 * time.Millisecond,
		DegradeBudget:  60 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := get(t, ts.URL+slowPath)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (degraded)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KDV-Complete"); got != "false" {
		t.Errorf("X-KDV-Complete = %q, want false", got)
	}
	if resp.Header.Get("X-KDV-Evaluated") == "" {
		t.Error("missing X-KDV-Evaluated on degraded response")
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 48 || img.Bounds().Dy() != 48 {
		t.Errorf("degraded image bounds %v", img.Bounds())
	}
}

// TestDeadlineHotspots503 pins the non-degradable endpoint's deadline
// behavior: a structured 503.
func TestDeadlineHotspots503(t *testing.T) {
	s := NewServerWith(Config{DefaultN: 3000, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := get(t, ts.URL+"/hotspots?dataset=crime&n=20000&method=exact&res=48x48&tau=0.001")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	decodeError(t, resp)
}

// TestProgressiveDeadlineClamped: /progressive with a budget beyond the
// request deadline must still answer 200 with a partial raster (the budget
// is clamped under the deadline) instead of a 503.
func TestProgressiveDeadlineClamped(t *testing.T) {
	s := NewServerWith(Config{DefaultN: 3000, RequestTimeout: 150 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Build the KDV before the timed request, so its deadline covers only
	// the clamped render: a cold n=20000 build can outlast 150 ms under the
	// race detector and leave nothing to render.
	const path = "/progressive?dataset=crime&n=20000&method=exact&res=48x48&budget=30s"
	p, err := s.parseParams(httptest.NewRequest(http.MethodGet, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.kdvFor(context.Background(), p); err != nil {
		t.Fatal(err)
	}

	resp := get(t, ts.URL+path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KDV-Complete"); got != "false" {
		t.Errorf("X-KDV-Complete = %q, want false", got)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestSingleflightDedup: concurrent cold-cache requests for one key share
// a single build.
func TestSingleflightDedup(t *testing.T) {
	c := lru.New[string, *quad.KDV](8, nil)
	var builds atomic.Int32
	build := func() (*quad.KDV, error) {
		builds.Add(1)
		time.Sleep(50 * time.Millisecond)
		return quad.New([]float64{0, 0, 1, 1, 2, 2}, 2)
	}
	var wg sync.WaitGroup
	results := make([]*quad.KDV, 10)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, _, err := c.Do(context.Background(), "key", build)
			if err != nil {
				t.Error(err)
			}
			results[i] = k
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
	for i, k := range results {
		if k != results[0] {
			t.Errorf("result %d is a different instance", i)
		}
	}
}

// TestCacheHitDoesNotWaitOnColdBuild: while a cold build for key B blocks,
// a hit on resident key A must return immediately.
func TestCacheHitDoesNotWaitOnColdBuild(t *testing.T) {
	c := lru.New[string, *quad.KDV](8, nil)
	warm, _, err := c.Do(context.Background(), "A", func() (*quad.KDV, error) {
		return quad.New([]float64{0, 0, 1, 1}, 2)
	})
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	building := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "B", func() (*quad.KDV, error) {
			close(building)
			<-release
			return quad.New([]float64{0, 0, 1, 1}, 2)
		})
	}()
	<-building

	done := make(chan *quad.KDV, 1)
	go func() {
		k, _, _ := c.Do(context.Background(), "A", func() (*quad.KDV, error) {
			t.Error("hit on resident key triggered a build")
			return nil, errors.New("unexpected build")
		})
		done <- k
	}()
	select {
	case k := <-done:
		if k != warm {
			t.Error("hit returned a different instance")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cache hit blocked behind an unrelated cold build")
	}
	close(release)
}

// TestCacheWaiterHonorsContext: a request waiting on someone else's build
// gives up when its context is cancelled.
func TestCacheWaiterHonorsContext(t *testing.T) {
	c := lru.New[string, *quad.KDV](8, nil)
	release := make(chan struct{})
	building := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "K", func() (*quad.KDV, error) {
			close(building)
			<-release
			return quad.New([]float64{0, 0, 1, 1}, 2)
		})
	}()
	<-building
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := c.Do(ctx, "K", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

// TestCacheInitiatorDisconnectDoesNotPoisonWaiters: the first caller of a
// cold key — the one whose request launched the build — disconnecting
// mid-build must not fail or re-run the build for everyone coalesced behind
// it. The build runs detached; the initiator gets its context error, the
// waiters get the finished KDV, and the result lands in the cache.
func TestCacheInitiatorDisconnectDoesNotPoisonWaiters(t *testing.T) {
	c := lru.New[string, *quad.KDV](8, nil)
	var builds atomic.Int32
	release := make(chan struct{})
	building := make(chan struct{})
	build := func() (*quad.KDV, error) {
		builds.Add(1)
		close(building)
		<-release
		return quad.New([]float64{0, 0, 1, 1, 2, 2}, 2)
	}

	// The initiator starts the build, then its client vanishes.
	ctx1, cancel1 := context.WithCancel(context.Background())
	initErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx1, "K", build)
		initErr <- err
	}()
	<-building
	cancel1()
	if err := <-initErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator err = %v, want context.Canceled", err)
	}

	// A waiter arriving after the disconnect coalesces onto the still-live
	// build — its closure must never run.
	type got struct {
		kdv *quad.KDV
		err error
	}
	waiter := make(chan got, 1)
	go func() {
		k, _, err := c.Do(context.Background(), "K", func() (*quad.KDV, error) {
			return nil, errors.New("waiter re-ran the build")
		})
		waiter <- got{k, err}
	}()
	// Give the waiter a moment to coalesce, then finish the build.
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case g := <-waiter:
		if g.err != nil {
			t.Fatalf("waiter inherited the initiator's fate: %v", g.err)
		}
		if g.kdv == nil {
			t.Fatal("waiter got a nil KDV")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never resolved")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	if !slices.Contains(c.Keys(), "K") {
		t.Fatal("finished build did not land in the cache")
	}
}

// TestCacheLRUBound: the cache never exceeds its bound and evicts oldest
// first.
func TestCacheLRUBound(t *testing.T) {
	c := lru.New[string, *quad.KDV](2, nil)
	mk := func() (*quad.KDV, error) { return quad.New([]float64{0, 0, 1, 1}, 2) }
	for _, key := range []string{"a", "b", "c"} {
		if _, _, err := c.Do(context.Background(), key, mk); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if slices.Contains(c.Keys(), "a") {
		t.Error("oldest entry not evicted")
	}
	if !slices.Contains(c.Keys(), "b") || !slices.Contains(c.Keys(), "c") {
		t.Error("recent entries evicted")
	}
	// Touch b, insert d: c (now oldest) must go.
	if _, _, err := c.Do(context.Background(), "b", mk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(context.Background(), "d", mk); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(c.Keys(), "c") || !slices.Contains(c.Keys(), "b") || !slices.Contains(c.Keys(), "d") {
		t.Error("LRU order not respected on touch")
	}
}

// TestCacheBuildErrorNotCached: a failed build must not poison the key.
func TestCacheBuildErrorNotCached(t *testing.T) {
	c := lru.New[string, *quad.KDV](4, nil)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (*quad.KDV, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	k, _, err := c.Do(context.Background(), "k", func() (*quad.KDV, error) { return quad.New([]float64{0, 0, 1, 1}, 2) })
	if err != nil || k == nil {
		t.Fatalf("retry after failed build: %v, %v", k, err)
	}
}

// TestZOrderEpsInCacheKey pins the satellite fix: zorder builds for
// different eps are distinct cache entries, other methods still share one.
// A shard build is keyed by its shard spec; an unsharded key keeps its form.
func TestZOrderEpsInCacheKey(t *testing.T) {
	key := func(method quad.Method, eps float64, shard cluster.ShardSpec) string {
		return cacheKey(&renderParams{name: "crime", n: 1000, seed: 1, kern: quad.Gaussian,
			method: method, eps: eps, shard: shard})
	}
	whole := cluster.ShardSpec{}
	if k1, k2 := key(quad.MethodZOrder, 0.01, whole), key(quad.MethodZOrder, 0.1, whole); k1 == k2 {
		t.Error("zorder cache key ignores eps")
	}
	if k1, k2 := key(quad.MethodQuadratic, 0.01, whole), key(quad.MethodQuadratic, 0.1, whole); k1 != k2 {
		t.Error("quad cache key needlessly includes eps")
	}
	if got := key(quad.MethodQuadratic, 0.01, whole); got != "crime/1000/1/gaussian/quad" {
		t.Errorf("unsharded cache key = %q, want crime/1000/1/gaussian/quad", got)
	}
	s0, s1 := key(quad.MethodQuadratic, 0.01, cluster.ShardSpec{Index: 0, Count: 2}),
		key(quad.MethodQuadratic, 0.01, cluster.ShardSpec{Index: 1, Count: 2})
	if s0 == s1 || s0 == key(quad.MethodQuadratic, 0.01, whole) {
		t.Errorf("shard cache keys %q, %q do not tell the shards and the whole dataset apart", s0, s1)
	}

	s := NewServerWith(Config{DefaultN: 2000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, eps := range []string{"0.01", "0.1"} {
		resp := get(t, ts.URL+"/render?dataset=crime&res=8x8&method=zorder&eps="+eps)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eps=%s: status %d", eps, resp.StatusCode)
		}
	}
	if got := s.cache.Len(); got != 2 {
		t.Errorf("zorder builds for two eps share %d cache entries, want 2", got)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler becomes a structured
// 500, not a crashed connection.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s := NewServerWith(Config{DefaultN: 2000})
	defer s.Close()
	h := s.recoverJSON(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/render", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if e.Status != 500 {
		t.Errorf("body status %d", e.Status)
	}
}

// TestGracefulShutdownDrains starts a real http.Server, puts a slow render
// in flight, then calls Shutdown — the in-flight request must complete
// with a 200 and Shutdown must return nil, mirroring kdvserve's
// SIGINT/SIGTERM path.
func TestGracefulShutdownDrains(t *testing.T) {
	s := NewServerWith(Config{DefaultN: 3000})
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	url := fmt.Sprintf("http://%s%s", ln.Addr(), slowPath)

	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		done <- result{resp.StatusCode, err}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.adm.inFlight() == 1 }, "slow render in flight")

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain", r.status)
	}

	// New connections must be refused after shutdown.
	if _, err := http.Get(url); err == nil {
		t.Error("request succeeded after Shutdown")
	}
}
