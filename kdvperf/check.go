package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/render"
	"github.com/quadkdv/quad/internal/tiles"
)

// Tolerances of the sampled-pixel check, the auditor's own: an absolute
// slack of 1e-12 of the raster's scale on ε checks, and a 1e-9 relative
// margin around τ within which either classification is accepted.
const (
	slackFrac = 1e-12
	tauMargin = 1e-9
)

// checkPixels is how many pixels of each re-rendered sample are compared
// with the exact density.
const checkPixels = 12

// checker re-renders served responses through the library with the
// server's build options and compares bytes, and compares sampled pixels
// of those re-renders with the exact density.
type checker struct {
	rng *rand.Rand

	mu    sync.Mutex
	kdvs  map[kdvKey]*quad.KDV
	scale map[tileKey][2]float64 // tileset base-render min/max, by (set, eps)
	tiers map[tileKey]map[string]tierCopy
}

// tierCopy is what one cache tier served for a tile.
type tierCopy struct {
	body []byte
	etag string
}

func newChecker(seed int64) *checker {
	return &checker{
		rng:   rand.New(rand.NewSource(seed)),
		kdvs:  make(map[kdvKey]*quad.KDV),
		scale: make(map[tileKey][2]float64),
		tiers: make(map[tileKey]map[string]tierCopy),
	}
}

// buildKDV is what the server does on a KDV-cache miss: generate the
// dataset, keep its first two attributes, build with the default kernel
// and method.
func buildKDV(key kdvKey, eps float64) (*quad.KDV, error) {
	pts, err := dataset.Generate(key.dataset, key.n, key.seed)
	if err != nil {
		return nil, err
	}
	pts = dataset.First2D(pts)
	return quad.New(pts.Coords, pts.Dim,
		quad.WithKernel(quad.Gaussian), quad.WithMethod(quad.MethodQuadratic),
		quad.WithZOrderGuarantee(eps, 0.2))
}

// kdv returns the checker's own build for q's key.
func (c *checker) kdv(q query) (*quad.KDV, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := c.kdvs[q.key()]; ok {
		return k, nil
	}
	k, err := buildKDV(q.key(), q.eps)
	if err != nil {
		return nil, fmt.Errorf("library build of %v: %w", q.key(), err)
	}
	c.kdvs[q.key()] = k
	return k, nil
}

// verify re-renders q through the library and compares it with the served
// reply byte for byte, then checks sampled pixels against the exact
// density.
func (c *checker) verify(ctx context.Context, q query, r reply) error {
	switch q.endpoint {
	case epRender:
		return c.verifyRender(ctx, q, r)
	case epHotspots:
		return c.verifyHotspots(ctx, q, r)
	case epTiles:
		return c.verifyTile(ctx, q, r)
	}
	return fmt.Errorf("unknown endpoint %q", q.endpoint)
}

func (c *checker) verifyRender(ctx context.Context, q query, r reply) error {
	if got := r.header.Get("X-KDV-Complete"); got != "true" {
		return fmt.Errorf("%s: X-KDV-Complete %q", q.path(), got)
	}
	k, err := c.kdv(q)
	if err != nil {
		return err
	}
	dm, _, err := k.RenderEpsStatsInCtx(ctx, q.res, q.eps, q.win)
	if err != nil {
		return err
	}
	want, err := encodeHeatmap(dm)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, r.body) {
		return fmt.Errorf("%s: served PNG (%d bytes) differs from the library render (%d bytes)",
			q.path(), len(r.body), len(want))
	}
	g, err := grid.New(grid.Resolution{W: dm.Res.W, H: dm.Res.H},
		geom.Rect{Min: dm.WindowMin[:], Max: dm.WindowMax[:]})
	if err != nil {
		return err
	}
	return c.checkEps(k, g, dm.Values, q.eps, maxOf(dm.Values), q.path())
}

func encodeHeatmap(dm *quad.DensityMap) ([]byte, error) {
	v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
	var buf bytes.Buffer
	err := render.EncodePNG(&buf, render.Heatmap(v, render.Log))
	return buf.Bytes(), err
}

// libraryTau is the τ the server derives from "mu+k": μ + kσ of the strided
// εKDV pass over the default window at the request's raster.
func libraryTau(ctx context.Context, k *quad.KDV, q query) (float64, error) {
	stride := 1 + q.res.W*q.res.H/4096
	mu, sigma, err := k.ThresholdStatsCtx(ctx, q.res, stride, q.eps)
	if err != nil {
		return 0, err
	}
	return mu + q.tauK*sigma, nil
}

func (c *checker) verifyHotspots(ctx context.Context, q query, r reply) error {
	k, err := c.kdv(q)
	if err != nil {
		return err
	}
	tau, err := libraryTau(ctx, k, q)
	if err != nil {
		return err
	}
	served, err := strconv.ParseFloat(r.header.Get("X-KDV-Tau"), 64)
	if err != nil {
		return fmt.Errorf("%s: X-KDV-Tau %q: %v", q.path(), r.header.Get("X-KDV-Tau"), err)
	}
	if served != tau {
		return fmt.Errorf("%s: served τ %v, library τ %v", q.path(), served, tau)
	}
	hm, _, err := k.RenderTauStatsInCtx(ctx, q.res, tau, q.win)
	if err != nil {
		return err
	}
	img, err := render.Binary(grid.Resolution{W: hm.Res.W, H: hm.Res.H}, hm.Hot)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := render.EncodePNG(&buf, img); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), r.body) {
		return fmt.Errorf("%s: served PNG differs from the library τ render", q.path())
	}
	g, err := grid.New(grid.Resolution{W: hm.Res.W, H: hm.Res.H},
		geom.Rect{Min: hm.WindowMin[:], Max: hm.WindowMax[:]})
	if err != nil {
		return err
	}
	qp := make([]float64, 2)
	for i := 0; i < checkPixels; i++ {
		idx := c.intn(len(hm.Hot))
		px, py := idx%hm.Res.W, idx/hm.Res.W
		g.Query(px, py, qp)
		exact, err := k.Density(qp)
		if err != nil {
			return err
		}
		if math.Abs(exact-tau) <= tauMargin*math.Max(math.Abs(exact), math.Abs(tau)) {
			continue
		}
		if hm.Hot[idx] != (exact >= tau) {
			return fmt.Errorf("%s: pixel (%d,%d) classified hot=%v, exact density %g vs τ %g",
				q.path(), px, py, hm.Hot[idx], exact, tau)
		}
	}
	return nil
}

// tileScale is the pyramid's fixed colour scale: min and max of the zoom-0
// base render.
func (c *checker) tileScale(ctx context.Context, k *quad.KDV, q query) ([2]float64, error) {
	base := tileKey{set: q.key(), eps: q.eps}
	c.mu.Lock()
	s, ok := c.scale[base]
	c.mu.Unlock()
	if ok {
		return s, nil
	}
	full, sub := tiles.Coord{}.PixelRect(q.tileSize)
	dm, _, err := k.RenderEpsSubStatsInCtx(ctx, full, q.eps, quad.Window{}, sub)
	if err != nil {
		return s, err
	}
	v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
	s[0], s[1] = v.MinMax()
	c.mu.Lock()
	c.scale[base] = s
	c.mu.Unlock()
	return s, nil
}

func (c *checker) verifyTile(ctx context.Context, q query, r reply) error {
	k, err := c.kdv(q)
	if err != nil {
		return err
	}
	scale, err := c.tileScale(ctx, k, q)
	if err != nil {
		return err
	}
	full, sub := q.tile.PixelRect(q.tileSize)
	dm, _, err := k.RenderEpsSubStatsInCtx(ctx, full, q.eps, quad.Window{}, sub)
	if err != nil {
		return err
	}
	v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
	var buf bytes.Buffer
	if err := render.EncodePNG(&buf, render.HeatmapFixed(v, scale[0], scale[1], render.Log)); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), r.body) {
		return fmt.Errorf("%s: served tile differs from the library render", q.path())
	}
	if etag := r.header.Get("ETag"); etag != tiles.ETagFor(r.body) {
		return fmt.Errorf("%s: ETag %s does not hash the body", q.path(), etag)
	}
	win, err := k.DefaultWindow()
	if err != nil {
		return err
	}
	g, err := grid.New(grid.Resolution{W: full.W, H: full.H},
		geom.Rect{Min: []float64{win.MinX, win.MinY}, Max: []float64{win.MaxX, win.MaxY}})
	if err != nil {
		return err
	}
	sg, err := g.Sub(sub.X0, sub.Y0, dm.Res.W, dm.Res.H)
	if err != nil {
		return err
	}
	return c.checkEps(k, sg, dm.Values, q.eps, math.Max(scale[1], maxOf(dm.Values)), q.path())
}

// checkEps compares sampled pixels of an εKDV raster with the exact
// density: |v − F(q)| ≤ ε·F(q) + slack.
func (c *checker) checkEps(k *quad.KDV, g *grid.Grid, vals []float64, eps, scale float64, what string) error {
	qp := make([]float64, 2)
	for i := 0; i < checkPixels; i++ {
		idx := c.intn(len(vals))
		px, py := idx%g.Res.W, idx/g.Res.W
		g.Query(px, py, qp)
		exact, err := k.Density(qp)
		if err != nil {
			return err
		}
		if math.Abs(vals[idx]-exact) > eps*exact+slackFrac*scale {
			return fmt.Errorf("%s: pixel (%d,%d) value %g, exact %g: outside ε=%g",
				what, px, py, vals[idx], exact, eps)
		}
	}
	return nil
}

func (c *checker) intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tier records what one cache tier ("build", "coalesced", "memory",
// "disk") served for a tile; tierConflicts reports tiles whose tiers
// disagree in bytes or ETag.
func (c *checker) tier(q query, source string, r reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := q.tileKey()
	m := c.tiers[k]
	if m == nil {
		m = make(map[string]tierCopy)
		c.tiers[k] = m
	}
	if _, seen := m[source]; !seen {
		m[source] = tierCopy{body: r.body, etag: r.header.Get("ETag")}
	}
}

func (c *checker) tierConflicts() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, m := range c.tiers {
		var ref *tierCopy
		var refSource string
		for _, src := range []string{"build", "coalesced", "memory", "disk"} {
			t, ok := m[src]
			if !ok {
				continue
			}
			if t.etag != tiles.ETagFor(t.body) {
				return fmt.Errorf("tile %v via %s: ETag %s does not hash the body", k.c, src, t.etag)
			}
			if ref == nil {
				ref, refSource = &t, src
				continue
			}
			if !bytes.Equal(ref.body, t.body) || ref.etag != t.etag {
				return fmt.Errorf("tile %v: %s tier and %s tier served different bytes", k.c, refSource, src)
			}
		}
	}
	return nil
}

// checkNotModified is the revalidation check: an If-None-Match carrying
// the tile's ETag must get an empty 304 with that ETag.
func checkNotModified(r reply, etag string) error {
	if r.status != http.StatusNotModified {
		return fmt.Errorf("revalidation: status %d, want 304", r.status)
	}
	if len(r.body) != 0 {
		return fmt.Errorf("revalidation: 304 with a %d-byte body", len(r.body))
	}
	if got := r.header.Get("ETag"); got != etag {
		return fmt.Errorf("revalidation: ETag %s, want %s", got, etag)
	}
	return nil
}
