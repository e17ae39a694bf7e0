package serve

import (
	"image/png"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"github.com/quadkdv/quad/internal/cluster"
	"github.com/quadkdv/quad/internal/cluster/faultinject"
	"github.com/quadkdv/quad/internal/telemetry"
)

// clusterServer wires a full coordinator-mode serving stack: a public
// server whose /render fans out to nWorkers in-process shard workers
// (servers mounting ShardHandler) through a fault-injection transport.
func clusterServer(t *testing.T, nWorkers int, mutate func(*cluster.CoordinatorConfig)) (*httptest.Server, *faultinject.Transport, []string) {
	t.Helper()
	fi := faultinject.New(nil, 1)
	var urls, hosts []string
	for i := 0; i < nWorkers; i++ {
		ws := NewServerWith(Config{})
		t.Cleanup(func() { ws.Close() })
		w := httptest.NewServer(ws.ShardHandler())
		t.Cleanup(w.Close)
		u, err := url.Parse(w.URL)
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, w.URL)
		hosts = append(hosts, u.Host)
	}
	ccfg := cluster.CoordinatorConfig{
		Workers:      urls,
		Client:       &http.Client{Transport: fi},
		Seed:         1,
		DisableHedge: true,
		RetryBase:    time.Millisecond,
		RetryMax:     4 * time.Millisecond,
		MaxAttempts:  2,
	}
	if mutate != nil {
		mutate(&ccfg)
	}
	reg := telemetry.NewRegistry()
	coord, err := cluster.NewCoordinator(ccfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWith(Config{DefaultN: 3000, Registry: reg, Cluster: coord})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, fi, hosts
}

func TestClusterRenderComplete(t *testing.T) {
	ts, _, _ := clusterServer(t, 2, nil)
	resp := get(t, ts.URL+"/render?dataset=crime&n=400&res=32x24&eps=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KDV-Complete"); got != "true" {
		t.Fatalf("X-KDV-Complete = %q, want true", got)
	}
	if got := resp.Header.Get("X-KDV-Shards"); got != "2/2" {
		t.Fatalf("X-KDV-Shards = %q, want 2/2", got)
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 32 || img.Bounds().Dy() != 24 {
		t.Fatalf("image bounds %v", img.Bounds())
	}
}

func TestClusterRenderDegradesToPartial(t *testing.T) {
	ts, fi, hosts := clusterServer(t, 2, nil)
	// Worker 1 is dead: shard 1 has no replica to fail over to, so the
	// render degrades to the live shard instead of erroring.
	fi.SetDefault(hosts[1], faultinject.Action{Status: http.StatusServiceUnavailable})
	resp := get(t, ts.URL+"/render?dataset=crime&n=400&res=32x24&eps=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with a partial raster", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KDV-Complete"); got != "false" {
		t.Fatalf("X-KDV-Complete = %q, want false", got)
	}
	if got := resp.Header.Get("X-KDV-Shards"); got != "1/2" {
		t.Fatalf("X-KDV-Shards = %q, want 1/2", got)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatalf("partial raster is not a PNG: %v", err)
	}
}

func TestClusterAllWorkersDead502(t *testing.T) {
	ts, fi, hosts := clusterServer(t, 2, nil)
	for _, h := range hosts {
		fi.SetDefault(h, faultinject.Action{Status: http.StatusInternalServerError})
	}
	resp := get(t, ts.URL+"/render?dataset=crime&n=400&res=16x16&eps=0.05")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 when the whole cluster is down", resp.StatusCode)
	}
}

func TestClusterZOrderFallsBackToLocal(t *testing.T) {
	ts, fi, hosts := clusterServer(t, 2, nil)
	// Even with every worker dead, zorder (not shardable) renders locally.
	for _, h := range hosts {
		fi.SetDefault(h, faultinject.Action{Status: http.StatusInternalServerError})
	}
	resp := get(t, ts.URL+"/render?dataset=crime&n=400&method=zorder&res=16x16&eps=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the local fallback path", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KDV-Shards"); got != "" {
		t.Fatalf("local render carries X-KDV-Shards %q", got)
	}
}

func TestClusterOtherEndpointsStayLocal(t *testing.T) {
	ts, fi, hosts := clusterServer(t, 2, nil)
	for _, h := range hosts {
		fi.SetDefault(h, faultinject.Action{Status: http.StatusInternalServerError})
	}
	for _, path := range []string{
		"/hotspots?dataset=crime&n=400&res=16x16&eps=0.05",
		"/progressive?dataset=crime&n=400&res=16x16&eps=0.05&budget=2s",
	} {
		resp := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 (local render)", path, resp.StatusCode)
		}
	}
}

// TestShardRouteRejectsBadInput: the shard route parses with the public
// endpoints' parser, so every malformed shard render is a structured 400 —
// never garbage that would poison a merge, a 500 or a panic — and is
// counted under endpoint="shard".
func TestShardRouteRejectsBadInput(t *testing.T) {
	s := NewServerWith(Config{})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.ShardHandler())
	t.Cleanup(ts.Close)
	cases := []struct{ key, val string }{
		{"shard", "2/2"},                 // index out of range
		{"shard", "-1/2"},                // negative index
		{"shard", "x/2"},                 // not a number
		{"shard", "0/0"},                 // zero count
		{"shard", ""},                    // missing
		{"eps", "NaN"},                   // NaN eps
		{"bbox", "NaN,0,40,40"},          // NaN bbox
		{"bbox", "0,0,40,Inf"},           // infinite bbox
		{"res", "4294967296x4294967296"}, // W*H wraps to 0
		{"method", "zorder"},             // sample sized for the whole dataset
	}
	for _, tc := range cases {
		q := url.Values{
			"dataset": {"crime"}, "n": {"100"}, "seed": {"1"}, "kernel": {"gaussian"},
			"method": {"quad"}, "eps": {"0.05"}, "res": {"8x8"}, "shard": {"0/2"},
		}
		if tc.val == "" {
			q.Del(tc.key)
		} else {
			q.Set(tc.key, tc.val)
		}
		resp := get(t, ts.URL+cluster.ShardRenderPath+"?"+q.Encode())
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s=%q: status %d, want 400", tc.key, tc.val, resp.StatusCode)
			continue
		}
		decodeError(t, resp)
	}
	if got := s.m.httpRequests["shard"]["4xx"].Value(); got != uint64(len(cases)) {
		t.Errorf(`kdv_http_requests_total{endpoint="shard",code="4xx"} = %d, want %d`, got, len(cases))
	}
}
