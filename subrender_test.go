package quad

import (
	"context"
	"math"
	"testing"

	"github.com/quadkdv/quad/internal/dataset"
)

// buildSubTestKDV builds a small crime-analogue KDV for the sub-render
// identity tests.
func buildSubTestKDV(t *testing.T, opts ...Option) *KDV {
	t.Helper()
	pts, err := dataset.Generate("crime", 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	pts = dataset.First2D(pts)
	k, err := New(pts.Coords, pts.Dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRenderEpsSubIdentity asserts the sub-rect render contract: an aligned
// sub-rectangle of the conceptual raster is bit-identical to the same crop
// of the full render, for the tile-shared default and for a per-pixel
// build, under the default window and an explicit one.
func TestRenderEpsSubIdentity(t *testing.T) {
	const eps = 0.05
	full := Resolution{W: 64, H: 64}
	for _, tc := range []struct {
		name string
		opts []Option
		win  Window
	}{
		{"tiled/default-window", nil, Window{}},
		{"perpixel/default-window", []Option{WithTileSize(1)}, Window{}},
		{"tiled/explicit-window", nil, Window{MinX: -1, MinY: -2, MaxX: 3, MaxY: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := buildSubTestKDV(t, tc.opts...)
			ref, err := k.Render(context.Background(), Request{Res: full, Window: tc.win, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			// 16-aligned quadrants plus an inner aligned block.
			for _, sub := range []PixelRect{
				{0, 0, 32, 32}, {32, 0, 64, 32}, {0, 32, 32, 64}, {32, 32, 64, 64},
				{16, 16, 48, 48},
			} {
				r, err := k.Render(context.Background(), Request{Res: full, Window: tc.win, Sub: sub, Eps: eps})
				if err != nil {
					t.Fatal(err)
				}
				dm := r.Density
				if dm.Res.W != sub.W() || dm.Res.H != sub.H() {
					t.Fatalf("sub render %v: got %v", sub, dm.Res)
				}
				for y := 0; y < sub.H(); y++ {
					for x := 0; x < sub.W(); x++ {
						got := dm.At(x, y)
						want := ref.Density.At(sub.X0+x, sub.Y0+y)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("sub %v pixel (%d,%d): %.17g != full render %.17g",
								sub, x, y, got, want)
						}
					}
				}
			}
		})
	}
}

// TestSubGridQueryIdentity asserts the grid-level property underneath the
// render identity: a sub-view's query points are bit-identical to the
// parent's at the offset pixel — for every offset, aligned or not.
func TestSubGridQueryIdentity(t *testing.T) {
	k := buildSubTestKDV(t)
	full := Resolution{W: 40, H: 30}
	g, err := k.newGridIn(full, Window{})
	if err != nil {
		t.Fatal(err)
	}
	sub := PixelRect{X0: 7, Y0: 11, X1: 23, Y1: 28}
	sg, err := subGridFor(k, full, Window{}, sub)
	if err != nil {
		t.Fatal(err)
	}
	q, qs := make([]float64, 2), make([]float64, 2)
	for y := 0; y < sub.H(); y++ {
		for x := 0; x < sub.W(); x++ {
			g.Query(sub.X0+x, sub.Y0+y, q)
			sg.Query(x, y, qs)
			if math.Float64bits(q[0]) != math.Float64bits(qs[0]) ||
				math.Float64bits(q[1]) != math.Float64bits(qs[1]) {
				t.Fatalf("query (%d,%d): sub %v != parent %v", x, y, qs, q)
			}
		}
	}
}

// TestRenderEpsSubValidation exercises the error paths: out-of-range and
// degenerate rects must be rejected, not rendered.
func TestRenderEpsSubValidation(t *testing.T) {
	k := buildSubTestKDV(t)
	full := Resolution{W: 32, H: 32}
	for _, sub := range []PixelRect{
		{0, 0, 0, 16},    // degenerate
		{-1, 0, 16, 16},  // negative origin
		{16, 16, 40, 32}, // past the right edge
		{0, 16, 16, 48},  // past the top edge
	} {
		if _, err := k.Render(context.Background(), Request{Res: full, Sub: sub, Eps: 0.05}); err == nil {
			t.Fatalf("sub %v: expected error", sub)
		}
	}
	if _, err := k.Render(context.Background(), Request{Res: full, Sub: PixelRect{0, 0, 16, 16}, Eps: -1}); err == nil {
		t.Fatal("negative eps: expected error")
	}
}

// TestDefaultWindow asserts DefaultWindow matches the window a zero-Window
// render reports.
func TestDefaultWindow(t *testing.T) {
	k := buildSubTestKDV(t)
	win, err := k.DefaultWindow()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := k.RenderEps(Resolution{W: 8, H: 8}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if win.MinX != dm.WindowMin[0] || win.MinY != dm.WindowMin[1] ||
		win.MaxX != dm.WindowMax[0] || win.MaxY != dm.WindowMax[1] {
		t.Fatalf("DefaultWindow %+v != render window %v..%v", win, dm.WindowMin, dm.WindowMax)
	}
}
