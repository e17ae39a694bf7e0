package progressive

import (
	"context"
	"slices"
	"testing"

	"github.com/quadkdv/quad/internal/grid"
)

// TestTileGroupingPreservesSemantics checks the properties the render
// layer relies on: grouping by tile keeps the levels (snapshot boundaries)
// and each level's pixels, and leaves the full-run raster identical.
func TestTileGroupingPreservesSemantics(t *testing.T) {
	for _, res := range []grid.Resolution{{W: 64, H: 48}, {W: 33, H: 7}, {W: 16, H: 16}} {
		base, err := BuildOrder(res, 0)
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := BuildOrder(res, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(grouped.Levels, base.Levels) {
			t.Fatalf("%v: levels %v, ungrouped %v", res, grouped.Levels, base.Levels)
		}
		start := 0
		for _, l := range base.Levels {
			a := slices.Clone(base.Pixels[start:l.End])
			b := slices.Clone(grouped.Pixels[start:l.End])
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Fatalf("%v: level %+v evaluates other pixels when grouped", res, l)
			}
			start = l.End
		}

		eval := func(px, py int) float64 { return float64(py*res.W + px) }
		a, _ := Run(context.Background(), base, eval, 0, 0, nil)
		b, _ := Run(context.Background(), grouped, eval, 0, 0, nil)
		if !a.Complete || !b.Complete {
			t.Fatalf("%v: incomplete full run", res)
		}
		for i := range a.Values.Data {
			if a.Values.Data[i] != b.Values.Data[i] {
				t.Fatalf("%v: full-run raster differs at %d: %g vs %g", res, i, a.Values.Data[i], b.Values.Data[i])
			}
		}
	}
}
