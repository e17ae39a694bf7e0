package progressive

import (
	"context"
	"testing"

	"github.com/quadkdv/quad/internal/grid"
)

// TestGroupByTilePreservesSemantics checks the three properties the render
// layer relies on: GroupByTile keeps Levels monotone (snapshot boundaries),
// keeps the same evaluation multiset (full runs still cover every pixel
// exactly once), and leaves the full-run raster identical.
func TestGroupByTilePreservesSemantics(t *testing.T) {
	for _, res := range []grid.Resolution{{W: 64, H: 48}, {W: 33, H: 7}, {W: 16, H: 16}} {
		base, err := BuildOrder(res)
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := BuildOrder(res)
		if err != nil {
			t.Fatal(err)
		}
		grouped.GroupByTile(16)

		if grouped.Len() != base.Len() {
			t.Fatalf("%v: length changed %d -> %d", res, base.Len(), grouped.Len())
		}
		seen := make(map[[2]int]int)
		for i := 0; i < grouped.Len(); i++ {
			if i > 0 && grouped.Levels[i] < grouped.Levels[i-1] {
				t.Fatalf("%v: levels not monotone at %d: %d after %d", res, i, grouped.Levels[i], grouped.Levels[i-1])
			}
			seen[[2]int{grouped.Px[i], grouped.Py[i]}]++
		}
		if len(seen) != res.Pixels() {
			t.Fatalf("%v: %d distinct pixels, want %d", res, len(seen), res.Pixels())
		}
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("%v: pixel %v evaluated %d times", res, p, n)
			}
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
