package serve

import (
	"encoding/json"
	"image/png"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := NewServer()
	s.DefaultN = 3000 // keep test renders fast
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestInfo(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/info")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if _, ok := info["datasets"]; !ok {
		t.Error("info missing datasets")
	}
}

func TestRenderPNG(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/render?dataset=crime&res=32x24&eps=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("content type %q", ct)
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 32 || img.Bounds().Dy() != 24 {
		t.Errorf("image bounds %v", img.Bounds())
	}
}

// rejectedQueries are requests every endpoint answers with 400; their
// query strings also seed FuzzRenderParams.
var rejectedQueries = []string{
	"/render",                                                // missing dataset
	"/render?dataset=nope",                                   // unknown dataset
	"/render?dataset=crime&res=banana",                       // bad res
	"/render?dataset=crime&res=999999x999999",                // too big
	"/render?dataset=crime&res=4294967296x4294967296",        // W*H wraps to 0
	"/render?dataset=crime&eps=7",                            // bad eps
	"/render?dataset=crime&eps=NaN",                          // NaN eps
	"/render?dataset=crime&res=16x12&bbox=NaN,0,40,40",       // NaN bbox
	"/render?dataset=crime&res=16x12&bbox=0,0,40,Inf",        // infinite bbox
	"/render?dataset=crime&res=16x12&bbox=-1e308,0,1e308,40", // width overflows
	"/render?dataset=crime&kernel=nope",                      // bad kernel
	"/render?dataset=crime&method=nope",                      // bad method
	"/render?dataset=crime&n=0",                              // bad n
	"/render?dataset=crime&seed=abc",                         // bad seed
	"/hotspots?dataset=crime&tau=banana",                     // bad tau
	"/hotspots?dataset=crime&res=16x12&tau=nan",              // NaN tau
	"/hotspots?dataset=crime&res=16x12&tau=munan",            // NaN offset from mu
	"/progressive?dataset=crime&budget=banana",               // bad budget
	"/progressive?dataset=crime&budget=5h",                   // budget too long
}

func TestRenderParamValidation(t *testing.T) {
	ts := testServer(t)
	for _, path := range rejectedQueries {
		resp := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestHotspots(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/hotspots?dataset=crime&res=24x24&tau=mu%2B0.1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatal(err)
	}
	tau, err := strconv.ParseFloat(resp.Header.Get("X-KDV-Tau"), 64)
	if err != nil || tau <= 0 {
		t.Errorf("X-KDV-Tau = %q", resp.Header.Get("X-KDV-Tau"))
	}
}

func TestHotspotsNumericTau(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/hotspots?dataset=crime&res=16x16&tau=0.001")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestProgressive(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/progressive?dataset=home&res=64x64&budget=50ms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatal(err)
	}
	evaluated, err := strconv.Atoi(resp.Header.Get("X-KDV-Evaluated"))
	if err != nil || evaluated < 1 {
		t.Errorf("X-KDV-Evaluated = %q", resp.Header.Get("X-KDV-Evaluated"))
	}
}

func TestMethodVariants(t *testing.T) {
	ts := testServer(t)
	for _, m := range []string{"quad", "karl", "minmax", "exact", "zorder"} {
		resp := get(t, ts.URL+"/render?dataset=crime&res=16x12&eps=0.05&method="+m)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("method %s: status %d", m, resp.StatusCode)
		}
	}
	// KARL with a non-Gaussian kernel must fail loudly.
	resp := get(t, ts.URL+"/render?dataset=crime&res=16x12&kernel=triangular&method=karl")
	if resp.StatusCode == http.StatusOK {
		t.Error("KARL + triangular kernel should be rejected")
	}
}

func TestCacheReuse(t *testing.T) {
	s := NewServer()
	s.DefaultN = 2000
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp := get(t, ts.URL+"/render?dataset=elnino&res=16x12&eps=0.05")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if got := s.cache.len(); got != 1 {
		t.Errorf("cache has %d entries, want 1", got)
	}
}

func TestRenderBBox(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/render?dataset=crime&res=16x12&eps=0.05&bbox=10,10,40,40")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"bbox=1,2,3", "bbox=a,b,c,d", "bbox=5,5,5,9"} {
		resp := get(t, ts.URL+"/render?dataset=crime&res=16x12&"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
