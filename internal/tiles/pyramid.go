package tiles

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/lru"
	"github.com/quadkdv/quad/internal/render"
	"github.com/quadkdv/quad/internal/trace"
)

// Pyramid serves one tileset — one (dataset, build options, ε, tile size,
// color scale) combination — as an XYZ pyramid over the dataset's default
// window. Lookups walk memory → disk → build; builds render the tile
// through the engine's sub-rect entry point, run detached from the
// initiating request (singleflight waiters and the cache get the finished
// tile even if the first requester disconnects), and land in both cache
// levels.
//
// Color normalization is fixed at construction from the zoom-0 base render
// (its min/max): every tile of the pyramid is colored against that one
// scale, so tiles agree at seams and match a full-render crop byte for
// byte. Higher zooms can resolve densities above the base maximum; those
// clamp to the ramp's top, exactly as the full render at that zoom would
// under the same fixed scale.
type Pyramid struct {
	tileset  string
	k        *quad.KDV
	eps      float64
	tileSize int
	maxZoom  int
	logScale bool
	lo, hi   float64
	win      quad.Window

	store *Store // may be nil: memory-only pyramid
	lru   *LRU
	m     *Metrics

	// OnStats, when set, receives each tile build's render counters (the
	// serve layer folds them into the kdv_render_* work metrics).
	OnStats func(quad.RenderStats)

	// OnBuilt, when set, receives each freshly rendered tile's raster before
	// it is encoded — the shadow-audit hook. The DensityMap is the tile's
	// own sub-raster; its window is the tile bbox, and the full-pyramid
	// pixel geometry is recoverable from the Coord and the tile size. The
	// context is the build's (carrying the initiating request's trace).
	OnBuilt func(ctx context.Context, c Coord, dm *quad.DensityMap)
}

// PyramidConfig configures NewPyramid.
type PyramidConfig struct {
	// Tileset is the pyramid's identity — the cache key prefix on disk and
	// in memory. It MUST encode everything the tile bytes depend on
	// (dataset, n, seed, kernel, method, ε, tile size, color scale), so
	// that changing any option addresses a different tileset instead of
	// serving stale tiles.
	Tileset  string
	KDV      *quad.KDV
	Eps      float64
	TileSize int
	MaxZoom  int  // ≤ 0 means MaxZoom
	LogScale bool // log1p color ramp (the usual KDV choice)
	Store    *Store
	LRU      *LRU
	Metrics  *Metrics
}

// NewPyramid builds the pyramid, rendering the zoom-0 base tile to fix the
// color scale (the base tile itself is cached, so the work is not wasted).
func NewPyramid(ctx context.Context, cfg PyramidConfig) (*Pyramid, error) {
	if cfg.KDV == nil {
		return nil, fmt.Errorf("tiles: nil KDV")
	}
	if err := ValidTileSize(cfg.TileSize); err != nil {
		return nil, err
	}
	if cfg.Eps < 0 {
		return nil, fmt.Errorf("tiles: negative eps %g", cfg.Eps)
	}
	if cfg.LRU == nil {
		cfg.LRU = NewLRU(64<<20, cfg.Metrics)
	}
	win, err := cfg.KDV.DefaultWindow()
	if err != nil {
		return nil, err
	}
	p := &Pyramid{
		tileset:  cfg.Tileset,
		k:        cfg.KDV,
		eps:      cfg.Eps,
		tileSize: cfg.TileSize,
		maxZoom:  cfg.MaxZoom,
		logScale: cfg.LogScale,
		win:      win,
		store:    cfg.Store,
		lru:      cfg.LRU,
		m:        cfg.Metrics,
	}
	// The zoom-0 render fixes the scale. Its values are also tile 0/0/0,
	// which buildTile would otherwise re-render first thing.
	base := Coord{}
	full, sub := base.PixelRect(p.tileSize)
	r, err := p.k.Render(ctx, quad.Request{Res: full, Sub: sub, Eps: p.eps})
	if err != nil {
		return nil, fmt.Errorf("tiles: base render: %w", err)
	}
	if p.OnStats != nil {
		p.OnStats(r.Stats)
	}
	dm := r.Density
	v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
	p.lo, p.hi = v.MinMax()
	tile, err := p.encodeAndStore(ctx, base, v)
	if err != nil {
		return nil, fmt.Errorf("tiles: base tile encode: %w", err)
	}
	p.lru.Add(p.lruKey(base), tile)
	return p, nil
}

// Tileset returns the pyramid's identity key.
func (p *Pyramid) Tileset() string { return p.tileset }

// TileSize returns the tile edge in pixels.
func (p *Pyramid) TileSize() int { return p.tileSize }

// Window returns the data-space window the pyramid is addressed against.
func (p *Pyramid) Window() quad.Window { return p.win }

// ScaleBounds returns the fixed color normalization [lo, hi].
func (p *Pyramid) ScaleBounds() (lo, hi float64) { return p.lo, p.hi }

// ETagFor computes the strong validator for a tile's bytes: a quoted
// content hash. Purely content-derived, so it is stable across processes,
// restarts, and cache levels.
func ETagFor(png []byte) string {
	sum := sha256.Sum256(png)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

func (p *Pyramid) lruKey(c Coord) string { return p.tileset + "|" + c.String() }

// Tile returns the tile at c, serving from memory, then disk, then a
// (coalesced, detached) build. source reports which level answered:
// "memory", "disk", "build", or "coalesced".
func (p *Pyramid) Tile(ctx context.Context, c Coord) (t *Tile, source string, err error) {
	if err := c.Validate(p.maxZoom); err != nil {
		return nil, "", err
	}
	sp, ctx := trace.StartSpan(ctx, "tiles.lookup")
	sp.SetAttrs(trace.Str("tile", c.String()), trace.Str("tileset", p.tileset))
	defer func() {
		sp.SetAttrs(trace.Str("source", source))
		sp.End()
	}()

	key := p.lruKey(c)
	if t, ok := p.lru.Get(key); ok {
		p.m.memHit().Inc()
		return t, "memory", nil
	}
	if p.store != nil {
		if png, ok := p.store.Get(p.tileset, c); ok {
			p.m.diskHit().Inc()
			t := &Tile{PNG: png, ETag: ETagFor(png)}
			p.lru.Add(key, t)
			return t, "disk", nil
		}
	}

	// Detached build (the lru.Cache contract): the render outlives the
	// initiating request, so coalesced waiters and the caches get the tile
	// even if the first requester gives up. The initiator's trace rides
	// along so the build span lands on the right request.
	buildCtx := trace.NewContext(context.Background(), trace.FromContext(ctx))
	buildCtx = trace.ContextWithSpan(buildCtx, sp)
	t, outcome, err := p.lru.Do(ctx, key, func() (*Tile, error) { return p.buildTile(buildCtx, c) })
	switch outcome {
	case lru.Hit: // another request's build landed after the lookups above
		p.m.memHit().Inc()
		return t, "memory", nil
	case lru.Miss:
		p.m.miss().Inc()
		return t, "build", err
	}
	p.m.coalesced().Inc()
	return t, "coalesced", err
}

// buildTile renders, encodes, and stores one tile.
func (p *Pyramid) buildTile(ctx context.Context, c Coord) (*Tile, error) {
	sp, ctx := trace.StartSpan(ctx, "tiles.build")
	sp.SetAttrs(trace.Str("tile", c.String()))
	start := time.Now()
	full, sub := c.PixelRect(p.tileSize)
	r, err := p.k.Render(ctx, quad.Request{Res: full, Sub: sub, Eps: p.eps})
	if err != nil {
		p.m.buildsErr().Inc()
		sp.SetAttrs(trace.Str("error", err.Error()))
		sp.End()
		return nil, err
	}
	if p.OnStats != nil {
		p.OnStats(r.Stats)
	}
	dm := r.Density
	if p.OnBuilt != nil {
		p.OnBuilt(ctx, c, dm)
	}
	v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
	tile, err := p.encodeAndStore(ctx, c, v)
	if err != nil {
		p.m.buildsErr().Inc()
		sp.SetAttrs(trace.Str("error", err.Error()))
		sp.End()
		return nil, err
	}
	p.m.buildsOK().Inc()
	p.m.buildSeconds().ObserveDuration(time.Since(start))
	sp.End()
	return tile, nil
}

// encodeAndStore colors the values with the pyramid's fixed scale, encodes
// the PNG, and writes it to the disk store; the caller puts the tile in
// memory. A disk write failure is ignored — the tile still serves from
// memory, and persistence is an optimization, not a correctness
// dependency — so the error is returned only when encoding itself fails.
func (p *Pyramid) encodeAndStore(ctx context.Context, c Coord, v *grid.Values) (*Tile, error) {
	scale := render.Linear
	if p.logScale {
		scale = render.Log
	}
	var buf bytes.Buffer
	if err := render.EncodePNG(&buf, render.HeatmapFixed(v, p.lo, p.hi, scale)); err != nil {
		return nil, err
	}
	png := buf.Bytes()
	tile := &Tile{PNG: png, ETag: ETagFor(png)}
	if p.store != nil {
		sp, _ := trace.StartSpan(ctx, "tiles.store")
		sp.SetAttrs(trace.Str("tile", c.String()))
		_ = p.store.Put(p.tileset, c, png)
		sp.End()
	}
	return tile, nil
}

// Warm renders every tile of the given zoom levels that is not already on
// disk or in memory — the boot-time precomputation of the hot low-zoom
// levels. It stops early when ctx is cancelled and returns the number of
// tiles now resident for those zooms.
func (p *Pyramid) Warm(ctx context.Context, zooms []int) (int, error) {
	resident := 0
	for _, z := range zooms {
		if z < 0 {
			continue
		}
		n := 1 << z
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if err := ctx.Err(); err != nil {
					return resident, err
				}
				if _, _, err := p.Tile(ctx, Coord{Z: z, X: x, Y: y}); err != nil {
					return resident, err
				}
				resident++
			}
		}
	}
	return resident, nil
}
