package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/tiles"
	"github.com/quadkdv/quad/internal/trace"
)

// tileCacheControl is the cache policy stamped on every tile response.
// Tiles are immutable for a given URL + options (the tileset key bakes in
// everything the bytes depend on), so clients and intermediaries may cache
// aggressively; the strong ETag revalidates for free after expiry.
const tileCacheControl = "public, max-age=3600"

// tileset names one pyramid: every parameter the tile bytes depend on.
// Unlike the KDV build cache key, eps ALWAYS participates (a tile rendered
// at ε=0.1 has different bytes than one at ε=0.01 even for bound methods),
// as do the tile size and the color scale — changing any option addresses a
// different tileset rather than serving stale tiles.
func tileset(p *renderParams, tileSize int) string {
	scale := "lin"
	if p.logScale {
		scale = "log"
	}
	return fmt.Sprintf("%s/%d/%d/%s/%s/eps=%g/t=%d/%s",
		p.name, p.n, p.seed, p.kern, p.method, p.eps, tileSize, scale)
}

// pyramidFor returns the pyramid for the given parameters from the
// registry, constructing it at most once per tileset however many requests
// ask (detached from the initiating request, like every lru.Cache load).
// Construction is expensive — a KDV build plus the zoom-0 base render that
// fixes the color scale — so a stampede on a cold tileset performs it once.
func (s *Server) pyramidFor(ctx context.Context, p *renderParams) (*tiles.Pyramid, error) {
	key := tileset(p, s.cfg.TileSize)
	sp, ctx := trace.StartSpan(ctx, "tiles.pyramid")
	sp.SetAttrs(trace.Str("tileset", key))
	defer sp.End()

	buildCtx := trace.NewContext(context.Background(), trace.FromContext(ctx))
	pyr, _, err := s.pyramids.Do(ctx, key, func() (*tiles.Pyramid, error) {
		return s.buildPyramid(buildCtx, p, key)
	})
	return pyr, err
}

func (s *Server) buildPyramid(ctx context.Context, p *renderParams, key string) (*tiles.Pyramid, error) {
	kdv, err := s.kdvFor(ctx, p)
	if err != nil {
		return nil, err
	}
	pyr, err := tiles.NewPyramid(ctx, tiles.PyramidConfig{
		Tileset:  key,
		KDV:      kdv,
		Eps:      p.eps,
		TileSize: s.cfg.TileSize,
		LogScale: p.logScale,
		Store:    s.tileStore,
		LRU:      s.tileLRU,
		Metrics:  s.tileM,
	})
	if err != nil {
		return nil, err
	}
	pyr.OnStats = func(st quad.RenderStats) { s.m.recordRenderStats("tiles", st) }
	pCopy := *p
	pyr.OnBuilt = func(ctx context.Context, c tiles.Coord, dm *quad.DensityMap) {
		s.auditTile(ctx, &pCopy, pyr, kdv, c, dm)
	}
	return pyr, nil
}

// handleTile serves GET /tiles/{dataset}/{z}/{x}/{y}.png. The same query
// parameters as /render select the build and render options (n, seed,
// kernel, method, eps, log); res and bbox do not apply — the pyramid's
// geometry is fixed by the dataset's extent and the zoom level.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	c, ok := parseTilePath(w, r)
	if !ok {
		s.m.recordOutcome("tiles", "error")
		return
	}
	p, err := s.parseParamsNamed(r.PathValue("dataset"), r.URL.Query())
	if err != nil {
		s.m.recordOutcome("tiles", "error")
		parseError(w, r, err)
		return
	}
	pyr, err := s.pyramidFor(r.Context(), p)
	if err != nil {
		s.m.recordOutcome("tiles", "error")
		parseError(w, r, err)
		return
	}
	tile, source, err := pyr.Tile(r.Context(), c)
	if err != nil {
		s.m.recordOutcome("tiles", "error")
		if c.Validate(0) != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		requestError(w, r, err)
		return
	}
	s.m.recordOutcome("tiles", "ok")

	h := w.Header()
	h.Set("ETag", tile.ETag)
	h.Set("Cache-Control", tileCacheControl)
	h.Set("X-KDV-Tile-Source", source)
	b := c.Bbox(pyr.Window())
	h.Set("X-KDV-Tile-Bbox", fmt.Sprintf("%g,%g,%g,%g", b.MinX, b.MinY, b.MaxX, b.MaxY))
	if etagMatch(r.Header.Get("If-None-Match"), tile.ETag) {
		s.tileM.NotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "image/png")
	h.Set("Content-Length", strconv.Itoa(len(tile.PNG)))
	_, _ = w.Write(tile.PNG)
}

// parseTilePath extracts the tile coordinate from the path wildcards,
// answering the error response itself on failure. The y segment carries the
// ".png" extension (ServeMux wildcards span whole segments).
func parseTilePath(w http.ResponseWriter, r *http.Request) (tiles.Coord, bool) {
	ys, ok := strings.CutSuffix(r.PathValue("y"), ".png")
	if !ok {
		writeError(w, http.StatusNotFound, "tile paths end in .png: /tiles/{dataset}/{z}/{x}/{y}.png")
		return tiles.Coord{}, false
	}
	z, errZ := strconv.Atoi(r.PathValue("z"))
	x, errX := strconv.Atoi(r.PathValue("x"))
	y, errY := strconv.Atoi(ys)
	if errZ != nil || errX != nil || errY != nil {
		writeError(w, http.StatusBadRequest, "bad tile coordinate %s/%s/%s",
			r.PathValue("z"), r.PathValue("x"), r.PathValue("y"))
		return tiles.Coord{}, false
	}
	c := tiles.Coord{Z: z, X: x, Y: y}
	if err := c.Validate(0); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return tiles.Coord{}, false
	}
	return c, true
}

// etagMatch implements the If-None-Match comparison for a strong ETag: a
// literal match of any listed validator, or "*".
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		// A weak validator (W/"...") still matches for GET revalidation.
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// warmTiles precomputes the configured low-zoom levels of the default
// pyramid (warm dataset, default options) — the tile half of Warmup.
func (s *Server) warmTiles(ctx context.Context) error {
	if len(s.cfg.WarmZooms) == 0 {
		return nil
	}
	kern, _ := quad.ParseKernel("gaussian")
	method, _ := quad.ParseMethod("quad")
	p := &renderParams{
		name: s.cfg.WarmDataset, n: s.DefaultN, seed: 1,
		kern: kern, method: method, eps: 0.01, logScale: true,
	}
	pyr, err := s.pyramidFor(ctx, p)
	if err != nil {
		return err
	}
	_, err = pyr.Warm(ctx, s.cfg.WarmZooms)
	return err
}
