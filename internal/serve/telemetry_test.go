package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the exact sample line `name{labels}`.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, sample+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("sample %q not found in scrape:\n%s", sample, body)
	return 0
}

// TestMetricsEndToEnd drives real requests through the handler tree and
// asserts the scrape reflects them: request counters, render work
// counters, cache hit/miss, and the latency histogram count.
func TestMetricsEndToEnd(t *testing.T) {
	ts := testServer(t)

	// Cold render: one cache miss. Same params again: one hit.
	for i := 0; i < 2; i++ {
		resp := get(t, ts.URL+"/render?dataset=crime&res=32x24&eps=0.05")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("render %d status %d", i, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
	}
	body := scrape(t, ts.URL)

	if v := metricValue(t, body, `kdv_render_requests_total{endpoint="render",outcome="ok"}`); v != 2 {
		t.Errorf("render ok count = %g, want 2", v)
	}
	if v := metricValue(t, body, `kdv_http_requests_total{endpoint="render",code="2xx"}`); v != 2 {
		t.Errorf("http 2xx count = %g, want 2", v)
	}
	if v := metricValue(t, body, `kdv_cache_misses_total`); v != 1 {
		t.Errorf("cache misses = %g, want 1", v)
	}
	if v := metricValue(t, body, `kdv_cache_hits_total`); v != 1 {
		t.Errorf("cache hits = %g, want 1", v)
	}
	if v := metricValue(t, body, `kdv_cache_entries`); v != 1 {
		t.Errorf("cache entries = %g, want 1", v)
	}
	for _, name := range []string{
		"kdv_render_queue_pops_total",
		"kdv_render_node_evals_total",
		"kdv_render_pixels_total",
		"kdv_admission_admitted_total",
	} {
		if v := metricValue(t, body, name); v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	if v := metricValue(t, body, `kdv_http_request_seconds_count{endpoint="render"}`); v != 2 {
		t.Errorf("latency histogram count = %g, want 2", v)
	}
	// A 400 lands in the 4xx class and the error outcome.
	resp := get(t, ts.URL+"/render?dataset=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dataset status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	body = scrape(t, ts.URL)
	if v := metricValue(t, body, `kdv_http_requests_total{endpoint="render",code="4xx"}`); v != 1 {
		t.Errorf("http 4xx count = %g, want 1", v)
	}
	if v := metricValue(t, body, `kdv_render_requests_total{endpoint="render",outcome="error"}`); v != 1 {
		t.Errorf("render error count = %g, want 1", v)
	}
}

// TestAdmissionRejectCounter fills every slot and queue position with slow
// renders, forces a 429, and asserts the rejection counter moved.
func TestAdmissionRejectCounter(t *testing.T) {
	s := NewServerWith(Config{MaxConcurrent: 1, MaxQueue: -1, DefaultN: 3000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single render slot.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		resp, err := http.Get(ts.URL + slowPath)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		close(release)
	}()
	<-started
	// Probe with three concurrent requests until one bounces: with a single
	// slot and no queue, at most one of the three is admitted, so a 429 is
	// guaranteed even if the occupying render above already finished (which
	// a sequential probe would miss — one request at a time never collides).
	waitFor(t, 5*time.Second, func() bool {
		codes := make(chan int, 3)
		for i := 0; i < 3; i++ {
			go func() {
				resp, err := http.Get(ts.URL + slowPath)
				if err != nil {
					codes <- 0
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes <- resp.StatusCode
			}()
		}
		saw := false
		for i := 0; i < 3; i++ {
			if <-codes == http.StatusTooManyRequests {
				saw = true
			}
		}
		return saw
	}, "never saw a 429")
	<-release
	wg.Wait()

	body := scrape(t, ts.URL)
	if v := metricValue(t, body, `kdv_admission_rejected_total`); v < 1 {
		t.Errorf("admission rejections = %g, want ≥ 1", v)
	}
}

// TestReadyz: a cold server reports 503 warming, triggers the warmup, and
// flips to 200 ready; the kdv_ready gauge follows.
func TestReadyz(t *testing.T) {
	s := NewServer()
	s.DefaultN = 3000
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold readyz status %d, want 503", resp.StatusCode)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["status"] != "warming" {
		t.Errorf("cold readyz status = %v, want warming", st["status"])
	}
	waitFor(t, 10*time.Second, func() bool {
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		defer r.Body.Close()
		io.Copy(io.Discard, r.Body)
		return r.StatusCode == http.StatusOK
	}, "readyz never flipped to 200")
	body := scrape(t, ts.URL)
	if v := metricValue(t, body, "kdv_ready"); v != 1 {
		t.Errorf("kdv_ready = %g, want 1", v)
	}
	// The warmup build must be resident so the first default render hits.
	if s.cache.Len() == 0 {
		t.Error("warmup left the cache empty")
	}
}

// TestWarmupExplicit: the server-side Warmup used by kdvserve at startup.
func TestWarmupExplicit(t *testing.T) {
	s := NewServer()
	s.DefaultN = 3000
	if s.Ready() {
		t.Fatal("server born ready")
	}
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("Warmup did not flip readiness")
	}
	// Idempotent.
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestID covers the middleware: honored when supplied, generated
// otherwise, echoed in error bodies.
func TestRequestID(t *testing.T) {
	ts := testServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-chosen-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "client-chosen-42" {
		t.Errorf("supplied ID not echoed: got %q", id)
	}

	resp2 := get(t, ts.URL+"/healthz")
	gen := resp2.Header.Get("X-Request-ID")
	if len(gen) != 16 {
		t.Errorf("generated ID %q, want 16 hex chars", gen)
	}

	resp3 := get(t, ts.URL+"/render?dataset=nope")
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp3.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp3.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID == "" || body.RequestID != resp3.Header.Get("X-Request-ID") {
		t.Errorf("error body request_id %q does not match header %q",
			body.RequestID, resp3.Header.Get("X-Request-ID"))
	}
}

// TestStatsHeaders: successful renders carry the X-KDV-Stats-* counters.
func TestStatsHeaders(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/render?dataset=crime&res=32x24&eps=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	for _, h := range []string{"X-KDV-Stats-Pops", "X-KDV-Stats-Node-Evals", "X-KDV-Stats-Render-Ms"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("missing header %s", h)
		}
	}
	if pops, _ := strconv.Atoi(resp.Header.Get("X-KDV-Stats-Pops")); pops <= 0 {
		t.Errorf("X-KDV-Stats-Pops = %q, want > 0", resp.Header.Get("X-KDV-Stats-Pops"))
	}

	hresp := get(t, ts.URL+"/hotspots?dataset=crime&res=32x24&tau=mu")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("hotspots status %d", hresp.StatusCode)
	}
	io.Copy(io.Discard, hresp.Body)
	if hresp.Header.Get("X-KDV-Stats-Node-Evals") == "" {
		t.Error("hotspots missing X-KDV-Stats-Node-Evals")
	}
}

// syncBuffer is an io.Writer test double safe for the concurrent writes
// the slow-query path performs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog: a request over the threshold is logged as one JSON
// line including the request ID and the render stats.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	s := NewServerWith(Config{DefaultN: 3000, SlowQuery: time.Nanosecond, SlowQueryLog: &buf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/render?dataset=crime&res=32x24&eps=0.05", nil)
	req.Header.Set("X-Request-ID", "slow-query-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var entry slowQueryEntry
	found := false
	for _, line := range lines {
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("bad slow-query line %q: %v", line, err)
		}
		if entry.Path == "/render" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no /render entry in slow-query log:\n%s", buf.String())
	}
	if entry.RequestID != "slow-query-test" {
		t.Errorf("request_id = %q, want slow-query-test", entry.RequestID)
	}
	if entry.Status != http.StatusOK || entry.ElapsedMs <= 0 {
		t.Errorf("entry status/elapsed wrong: %+v", entry)
	}
	if entry.Stats == nil || entry.Stats.Pixels != 32*24 || entry.Stats.NodeEvals <= 0 {
		t.Errorf("entry stats missing or wrong: %+v", entry.Stats)
	}
}

// TestMetricsValidExposition sanity-parses the whole scrape: every
// non-comment line must be `name{...} value` with a parseable value, and
// the histogram invariant bucket(+Inf) == count must hold.
func TestMetricsValidExposition(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/render?dataset=crime&res=32x24&eps=0.05")
	io.Copy(io.Discard, resp.Body)
	body := scrape(t, ts.URL)

	infCount := map[string]float64{}
	counts := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if strings.Contains(name, `le="+Inf"`) {
			key := strings.SplitN(name, "_bucket", 2)[0] + labelsOf(name)
			infCount[key] = v
		}
		if strings.Contains(name, "_count") {
			key := strings.SplitN(name, "_count", 2)[0] + labelsOf(name)
			counts[key] = v
		}
	}
	if len(counts) == 0 {
		t.Fatal("no histogram _count series in scrape")
	}
	for key, c := range counts {
		if inf, ok := infCount[key]; ok && inf != c {
			t.Errorf("histogram %s: +Inf bucket %g != count %g", key, inf, c)
		}
	}
}

// labelsOf strips the le label so bucket and count series can be matched.
func labelsOf(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	labels := name[i+1 : len(name)-1]
	var kept []string
	for _, l := range strings.Split(labels, ",") {
		if !strings.HasPrefix(l, "le=") {
			kept = append(kept, l)
		}
	}
	return fmt.Sprintf("{%s}", strings.Join(kept, ","))
}
