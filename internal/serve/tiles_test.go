package serve

import (
	"context"
	"encoding/json"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// tileTestServer runs a server with a small default n (fast tile builds)
// and, when dir is non-empty, a persistent tile store there.
func tileTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServerWith(Config{DefaultN: 2000, TilesDir: dir, TileSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func getWith(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestTileEndpoint fetches a tile and asserts the response shape: a PNG of
// the configured tile size, a strong ETag, Cache-Control, and the bbox
// header; the second fetch is a cache hit.
func TestTileEndpoint(t *testing.T) {
	_, ts := tileTestServer(t, "")
	resp := get(t, ts.URL+"/tiles/crime/1/0/1.png?eps=0.05")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("content type %q", ct)
	}
	etag := resp.Header.Get("ETag")
	if len(etag) < 4 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Fatalf("ETag %q is not a quoted strong validator", etag)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != tileCacheControl {
		t.Fatalf("Cache-Control %q", cc)
	}
	if bb := resp.Header.Get("X-KDV-Tile-Bbox"); bb == "" {
		t.Fatal("missing X-KDV-Tile-Bbox")
	}
	if src := resp.Header.Get("X-KDV-Tile-Source"); src != "build" && src != "coalesced" {
		t.Fatalf("first fetch source %q", src)
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 64 || img.Bounds().Dy() != 64 {
		t.Fatalf("tile bounds %v, want 64x64", img.Bounds())
	}

	resp2 := get(t, ts.URL+"/tiles/crime/1/0/1.png?eps=0.05")
	if src := resp2.Header.Get("X-KDV-Tile-Source"); src != "memory" {
		t.Fatalf("second fetch source %q, want memory", src)
	}
	if resp2.Header.Get("ETag") != etag {
		t.Fatal("ETag changed between identical fetches")
	}
}

// TestTileNotModified asserts the conditional-GET path: If-None-Match with
// the current ETag answers 304 with an empty body (and keeps the caching
// headers so the client refreshes its freshness lifetime).
func TestTileNotModified(t *testing.T) {
	_, ts := tileTestServer(t, "")
	url := ts.URL + "/tiles/crime/0/0/0.png?eps=0.05"
	first := get(t, url)
	etag := first.Header.Get("ETag")
	io.Copy(io.Discard, first.Body)

	for _, inm := range []string{etag, `"bogus", ` + etag, "W/" + etag, "*"} {
		resp := getWith(t, url, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		if len(body) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried %d body bytes", inm, len(body))
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("304 lost the ETag")
		}
		if resp.Header.Get("Cache-Control") != tileCacheControl {
			t.Fatalf("304 lost Cache-Control")
		}
	}
	// A stale validator still gets the full tile.
	resp := getWith(t, url, map[string]string{"If-None-Match": `"0000"`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale validator: status %d", resp.StatusCode)
	}
	if n, _ := io.Copy(io.Discard, resp.Body); n == 0 {
		t.Fatal("stale validator got empty body")
	}
}

// TestTileETagAcrossRestart asserts the ETag is content-derived and the
// disk store survives a server restart: a second server over the same tiles
// directory serves the identical ETag from disk, without a rebuild.
func TestTileETagAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := tileTestServer(t, dir)
	url1 := ts1.URL + "/tiles/crime/1/1/0.png?eps=0.05"
	resp := get(t, url1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	io.Copy(io.Discard, resp.Body)
	ts1.Close()
	s1.Close()

	_, ts2 := tileTestServer(t, dir)
	resp2 := get(t, ts2.URL+"/tiles/crime/1/1/0.png?eps=0.05")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restart status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Fatalf("ETag across restart: %s != %s", got, etag)
	}
	if src := resp2.Header.Get("X-KDV-Tile-Source"); src != "disk" {
		t.Fatalf("restart source %q, want disk", src)
	}
	// And a 304 round trip against the restarted server.
	resp3 := getWith(t, ts2.URL+"/tiles/crime/1/1/0.png?eps=0.05",
		map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("restart 304: status %d", resp3.StatusCode)
	}
}

// TestTileKeyInvalidation asserts the cache key includes dataset, ε, and
// tile options: changing any of them yields different tile identities
// (distinct ETags / fresh builds) instead of stale hits.
func TestTileKeyInvalidation(t *testing.T) {
	_, ts := tileTestServer(t, "")
	base := get(t, ts.URL+"/tiles/crime/1/0/0.png?eps=0.05")
	baseTag := base.Header.Get("ETag")
	io.Copy(io.Discard, base.Body)

	for name, url := range map[string]string{
		"eps":     ts.URL + "/tiles/crime/1/0/0.png?eps=0.2",
		"dataset": ts.URL + "/tiles/home/1/0/0.png?eps=0.05",
		"n":       ts.URL + "/tiles/crime/1/0/0.png?eps=0.05&n=1000",
		"scale":   ts.URL + "/tiles/crime/1/0/0.png?eps=0.05&log=0",
	} {
		resp := get(t, url)
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s variant: status %d: %s", name, resp.StatusCode, body)
		}
		if src := resp.Header.Get("X-KDV-Tile-Source"); src == "memory" || src == "disk" {
			t.Fatalf("%s variant served from cache (%s) — key misses the option", name, src)
		}
		if tag := resp.Header.Get("ETag"); tag == baseTag {
			t.Fatalf("%s variant shares the base ETag", name)
		}
		io.Copy(io.Discard, resp.Body)
	}
}

// TestTileErrors exercises the failure statuses: out-of-pyramid coords and
// malformed paths are 404/400, never 500.
func TestTileErrors(t *testing.T) {
	_, ts := tileTestServer(t, "")
	for url, want := range map[string]int{
		"/tiles/crime/1/2/0.png?eps=0.05":  http.StatusNotFound,   // x past 2^z
		"/tiles/crime/1/0/-1.png?eps=0.05": http.StatusNotFound,   // negative y
		"/tiles/crime/25/0/0.png?eps=0.05": http.StatusNotFound,   // z past cap
		"/tiles/crime/1/0/0?eps=0.05":      http.StatusNotFound,   // no .png
		"/tiles/crime/a/0/0.png?eps=0.05":  http.StatusBadRequest, // non-numeric
		"/tiles/nosuch/0/0/0.png":          http.StatusBadRequest, // unknown dataset
	} {
		resp := get(t, ts.URL+url)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", url, resp.StatusCode, want)
		}
		io.Copy(io.Discard, resp.Body)
	}
}

// TestTileWarmup asserts Warmup with WarmZooms precomputes the configured
// levels: after warmup, those tiles serve from cache.
func TestTileWarmup(t *testing.T) {
	s := NewServerWith(Config{DefaultN: 2000, TileSize: 64, WarmZooms: []int{0, 1}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("not ready after warmup")
	}
	// The warm pyramid uses the default options (eps=0.01, log scale).
	resp := get(t, ts.URL+"/tiles/crime/1/1/1.png?eps=0.01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-KDV-Tile-Source"); src != "memory" {
		t.Fatalf("warmed tile source %q, want memory", src)
	}
	io.Copy(io.Discard, resp.Body)
}

// TestPyramidRegistryKeepsLiveTileset: a tileset whose pyramid cannot be
// built answers 400 and takes no place in the registry, so failed requests
// neither evict a live pyramid nor show in /debug/ops.
func TestPyramidRegistryKeepsLiveTileset(t *testing.T) {
	s := NewServerWith(Config{CacheSize: 2, TileSize: 64, DefaultN: 2000})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	if resp := get(t, ts.URL+"/tiles/crime/0/0/0.png?eps=0.05"); resp.StatusCode != http.StatusOK {
		t.Fatalf("crime tile: status %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if resp := get(t, ts.URL+"/tiles/nosuch/0/0/0.png?eps=0.05"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("nosuch tile %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	var ops struct {
		Tilesets []string `json:"tilesets"`
	}
	if err := json.NewDecoder(get(t, ts.URL+"/debug/ops").Body).Decode(&ops); err != nil {
		t.Fatal(err)
	}
	want := "crime/2000/1/gaussian/quad/eps=0.05/t=64/log"
	if len(ops.Tilesets) != 1 || ops.Tilesets[0] != want {
		t.Fatalf("/debug/ops tilesets = %q, want [%s]", ops.Tilesets, want)
	}
}
