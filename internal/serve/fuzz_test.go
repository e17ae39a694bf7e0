package serve

import (
	"net/url"
	"strings"
	"testing"

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
