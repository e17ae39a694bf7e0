package serve

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
)

// FuzzRenderParams feeds raw query strings through the parser every render
// endpoint shares. It must never panic, and every parameter set it accepts
// must meet the server's caps and the engine's preconditions, as an εKDV
// and as a progressive request (the /progressive endpoint and the
// degraded /render fallback). No KDV is built.
func FuzzRenderParams(f *testing.F) {
	for _, path := range rejectedQueries {
		_, query, _ := strings.Cut(path, "?")
		f.Add(query)
	}
	for _, query := range []string{
		"",
		"n=3000&res=32x24&eps=0.05",
		"n=1&seed=-9&kernel=epanechnikov&method=karl&res=1x1&eps=0&log=0",
		"res=2560x1920&eps=1&bbox=-5,-5,5,5",
		"method=exact&res=160x160&bbox=25,100,60,800",
	} {
		f.Add(query)
	}
	s := NewServer()
	defer s.Close()
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		p, err := s.parseParamsNamed("crime", q)
		if err != nil {
			return
		}
		if p.n < 1 || p.n > maxN {
			t.Fatalf("%q: accepted n = %d, want 1..%d", query, p.n, maxN)
		}
		if p.res.W < 1 || p.res.H < 1 || p.res.W > maxPixels/p.res.H {
			t.Fatalf("%q: accepted resolution %v, want 1..%d pixels", query, p.res, maxPixels)
		}
		for _, v := range []quad.Variant{quad.EpsKDV, quad.ProgressiveKDV} {
			req := quad.Request{Variant: v, Res: p.res, Window: p.window, Eps: p.eps}
			if err := req.Validate(); err != nil {
				t.Fatalf("%q: accepted parameters fail as a %s request: %v", query, v, err)
			}
		}
	})
}

// fuzzEndpoints are the routes FuzzHandlers drives. A /tiles/ input
// supplies the {dataset}/{z}/{x}/{y}.png segments of its path.
var fuzzEndpoints = []string{"/render", "/hotspots", "/progressive", "/debug/workmap", "/tiles/", "/debug/ops"}

// FuzzHandlers drives the full handler stack in-process — guard,
// admission, the KDV, pyramid and tile caches, the render endpoints and
// the shadow auditor at fraction 1 — with raw queries. Each input's own n
// (≤ 2000) and res (≤ 32×32) come first in the query, where Query().Get
// reads them, so no input builds a large KDV or raster. No response may be
// a 5xx other than 429, 503 or 504 (a handler panic is a 500 through
// recoverJSON), and once every audit a 200 submitted has run, none may
// have found a violation.
func FuzzHandlers(f *testing.F) {
	add := func(path, query string) {
		for i, ep := range fuzzEndpoints {
			if tile, ok := strings.CutPrefix(path, ep); ok && (tile == "" || ep == "/tiles/") {
				f.Add(uint8(i), uint16(1999), uint8(15), uint8(11), tile, query)
				return
			}
		}
		f.Fatalf("seed path %q is no fuzzed endpoint", path)
	}
	for _, target := range rejectedQueries {
		path, query, _ := strings.Cut(target, "?")
		add(path, query)
	}
	for _, target := range []string{
		"/render?dataset=crime&eps=0.05",
		"/render?dataset=hep&seed=3&kernel=epanechnikov&eps=0.01&bbox=0,0,50,50",
		"/render?dataset=crime&method=karl&eps=0.02",
		"/render?dataset=home&method=exact&eps=0&log=0",
		"/hotspots?dataset=crime&tau=mu%2B0.5",
		"/hotspots?dataset=elnino&kernel=cosine&tau=0.001",
		"/progressive?dataset=crime&budget=50ms",
		"/progressive?dataset=crime&method=exact&budget=1s",
		"/debug/workmap?dataset=crime&layer=gap",
		"/debug/workmap?dataset=crime&layer=depth&tau=mu",
		"/tiles/crime/0/0/0.png?eps=0.05",
		"/tiles/crime/2/1/3.png?eps=0.01&kernel=triangular",
		"/tiles/nosuch/0/0/0.png?eps=0.05",
		"/tiles/crime/20/1048575/0.png?method=minmax",
		"/debug/ops",
	} {
		path, query, _ := strings.Cut(target, "?")
		add(path, query)
	}

	s := NewServerWith(Config{
		DefaultN: 500, CacheSize: 3, TileSize: 64, AuditFraction: 1,
		RequestTimeout: 2 * time.Second, EnableWorkMap: true,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, n uint16, w, hgt uint8, tile, query string) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		if path == "/tiles/" {
			if strings.ContainsAny(tile, "?#") {
				return // the caps must stay the query's first values
			}
			path += tile
		}
		target := fmt.Sprintf("%s?n=%d&res=%dx%d&%s", path, 1+int(n)%2000, 1+int(w)%32, 1+int(hgt)%32, query)
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch code := rec.Code; {
		case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable, code == http.StatusGatewayTimeout:
		case code >= 500:
			t.Fatalf("GET %s: %d %s", target, code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		a := s.Auditor()
		for deadline := time.Now().Add(10 * time.Second); a.Pending() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("GET %s: %d audits still pending after 10s", target, a.Pending())
			}
		}
		if v := a.ViolationCount(); v > 0 {
			t.Fatalf("GET %s: %d audit violations: %+v", target, v, a.State().RecentViolations)
		}
	})
}
