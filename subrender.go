package quad

import (
	"context"
	"fmt"
	"time"

	"github.com/quadkdv/quad/internal/grid"
)

// PixelRect selects the pixel sub-rectangle [X0, X1) × [Y0, Y1) of a raster,
// in the raster's lower-left-origin pixel coordinates.
type PixelRect struct {
	X0, Y0, X1, Y1 int
}

// W returns the sub-rectangle's width in pixels.
func (r PixelRect) W() int { return r.X1 - r.X0 }

// H returns the sub-rectangle's height in pixels.
func (r PixelRect) H() int { return r.Y1 - r.Y0 }

func (r PixelRect) validate(full Resolution) error {
	if r.X1 <= r.X0 || r.Y1 <= r.Y0 {
		return fmt.Errorf("quad: degenerate pixel rect [%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
	}
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > full.W || r.Y1 > full.H {
		return fmt.Errorf("quad: pixel rect [%d,%d)x[%d,%d) outside raster %dx%d",
			r.X0, r.X1, r.Y0, r.Y1, full.W, full.H)
	}
	return nil
}

// DefaultWindow returns the data-space window a zero-Window render covers:
// the dataset's bounding box (the full dataset's under WithShard) expanded
// by the configured margin. This is the fixed reference frame the XYZ tile
// pyramid is addressed against.
func (k *KDV) DefaultWindow() (Window, error) {
	g, err := k.newGridIn(Resolution{W: 1, H: 1}, Window{})
	if err != nil {
		return Window{}, err
	}
	return Window{
		MinX: g.Window.Min[0], MinY: g.Window.Min[1],
		MaxX: g.Window.Max[0], MaxY: g.Window.Max[1],
	}, nil
}

// RenderEpsSubInCtx renders the sub pixel rectangle of the conceptual
// full-resolution raster over win (zero Window = the dataset's default
// window) and returns a sub.W()×sub.H() density map. Every query point is
// computed with the full raster's window mapping, so the returned raster is
// bit-identical (Float64bits) to the corresponding crop of a full
// RenderEpsInCtx render whenever the sub-rect's origin is aligned to the
// engine's pixel-tile lattice (X0 and Y0 multiples of the effective tile
// size, see WithTileSize) — the contract the tile-pyramid subsystem and its
// stitched-mosaic conformance pass are built on. Unaligned origins render
// correctly (the ε guarantee holds) but may diverge from the crop in the
// low bits, because tile-shared frontiers would straddle different pixel
// blocks.
//
// The DensityMap's WindowMin/WindowMax are the data-space corners of the
// sub-rectangle (pixel edges, not centers) — the tile's bbox.
func (k *KDV) RenderEpsSubInCtx(ctx context.Context, full Resolution, eps float64, win Window, sub PixelRect) (*DensityMap, error) {
	return k.renderEpsSubIn(ctx, full, eps, win, sub, nil)
}

// RenderEpsSubStatsInCtx is RenderEpsSubInCtx additionally reporting the
// render's work counters.
func (k *KDV) RenderEpsSubStatsInCtx(ctx context.Context, full Resolution, eps float64, win Window, sub PixelRect) (*DensityMap, RenderStats, error) {
	var st RenderStats
	start := time.Now()
	dm, err := k.renderEpsSubIn(ctx, full, eps, win, sub, &st)
	st.Elapsed = time.Since(start)
	emitRenderSpans(ctx, "render.eps.sub", start, st, err)
	return dm, st, err
}

func (k *KDV) renderEpsSubIn(ctx context.Context, full Resolution, eps float64, win Window, sub PixelRect, st *RenderStats) (*DensityMap, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	if full.W < 1 || full.H < 1 {
		return nil, fmt.Errorf("quad: non-positive full resolution %dx%d", full.W, full.H)
	}
	if err := sub.validate(full); err != nil {
		return nil, err
	}
	// Only the sub-rectangle is allocated: the full raster of a deep-zoom
	// XYZ tile is far above maxRasterPixels by design.
	if err := checkPixels(sub.W(), sub.H()); err != nil {
		return nil, err
	}
	g, err := k.newGridIn(full, win)
	if err != nil {
		return nil, err
	}
	sg, err := g.Sub(sub.X0, sub.Y0, sub.W(), sub.H())
	if err != nil {
		return nil, err
	}
	vals, err := k.renderValues(ctx, sg, renderPass{eps: eps, stats: st})
	if err != nil {
		return nil, err
	}
	minX, minY := sg.PixelEdge(0, 0)
	maxX, maxY := sg.PixelEdge(sub.W(), sub.H())
	return &DensityMap{
		Res:       Resolution{W: sub.W(), H: sub.H()},
		Values:    vals,
		WindowMin: [2]float64{minX, minY},
		WindowMax: [2]float64{maxX, maxY},
	}, nil
}

// subGridFor exposes the sub-view grid construction to tests asserting the
// query-point identity directly.
func subGridFor(k *KDV, full Resolution, win Window, sub PixelRect) (*grid.Grid, error) {
	g, err := k.newGridIn(full, win)
	if err != nil {
		return nil, err
	}
	return g.Sub(sub.X0, sub.Y0, sub.W(), sub.H())
}
