package quad

import (
	"fmt"

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
// on each side by 0.02 of its extent on that axis. This is the fixed
// reference frame the XYZ tile pyramid is addressed against.
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

// subGridFor exposes the sub-view grid construction to tests asserting the
// query-point identity directly.
func subGridFor(k *KDV, full Resolution, win Window, sub PixelRect) (*grid.Grid, error) {
	g, err := k.newGridIn(full, win)
	if err != nil {
		return nil, err
	}
	return g.Sub(sub.X0, sub.Y0, sub.W(), sub.H())
}
