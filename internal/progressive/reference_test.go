package progressive

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"github.com/quadkdv/quad/internal/grid"
)

// refRegion, refOrder, refBuildOrder and refGroupByTile are the order as it
// was first written: a breadth-first queue of regions, four parallel
// per-entry arrays, a sweep for pixels no center reached, and a stable sort
// by level and tile. They are the reference BuildOrder must reproduce.
type refRegion struct {
	x0, y0, w, h int
	depth        int
}

type refOrder struct {
	Res     grid.Resolution
	Px, Py  []int
	Regions []refRegion
	Levels  []int
}

func (o *refOrder) Len() int { return len(o.Px) }

func refBuildOrder(res grid.Resolution) *refOrder {
	side := 1
	for side < res.W || side < res.H {
		side <<= 1
	}
	o := &refOrder{Res: res}
	seen := make([]bool, res.W*res.H)
	queue := []refRegion{{0, 0, side, side, 0}}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if r.x0 >= res.W || r.y0 >= res.H {
			continue
		}
		cx := r.x0 + r.w/2
		cy := r.y0 + r.h/2
		if cx >= res.W {
			cx = res.W - 1
		}
		if cy >= res.H {
			cy = res.H - 1
		}
		if !seen[cy*res.W+cx] {
			seen[cy*res.W+cx] = true
			o.Px = append(o.Px, cx)
			o.Py = append(o.Py, cy)
			o.Regions = append(o.Regions, r)
			o.Levels = append(o.Levels, r.depth)
		}
		if r.w > 1 || r.h > 1 {
			hw, hh := r.w/2, r.h/2
			if hw == 0 {
				hw = 1
			}
			if hh == 0 {
				hh = 1
			}
			if r.w > 1 && r.h > 1 {
				queue = append(queue,
					refRegion{r.x0, r.y0, hw, hh, r.depth + 1},
					refRegion{r.x0 + hw, r.y0, r.w - hw, hh, r.depth + 1},
					refRegion{r.x0, r.y0 + hh, hw, r.h - hh, r.depth + 1},
					refRegion{r.x0 + hw, r.y0 + hh, r.w - hw, r.h - hh, r.depth + 1},
				)
			} else if r.w > 1 {
				queue = append(queue, refRegion{r.x0, r.y0, hw, r.h, r.depth + 1}, refRegion{r.x0 + hw, r.y0, r.w - hw, r.h, r.depth + 1})
			} else {
				queue = append(queue, refRegion{r.x0, r.y0, r.w, hh, r.depth + 1}, refRegion{r.x0, r.y0 + hh, r.w, r.h - hh, r.depth + 1})
			}
		}
	}
	for py := 0; py < res.H; py++ {
		for px := 0; px < res.W; px++ {
			if !seen[py*res.W+px] {
				o.Px = append(o.Px, px)
				o.Py = append(o.Py, py)
				o.Regions = append(o.Regions, refRegion{px, py, 1, 1, refMaxDepth(o) + 1})
				o.Levels = append(o.Levels, refMaxDepth(o)+1)
			}
		}
	}
	return o
}

func refGroupByTile(o *refOrder, size int) {
	if size < 2 || o.Len() < 2 {
		return
	}
	tilesX := (o.Res.W + size - 1) / size
	idx := make([]int, o.Len())
	for i := range idx {
		idx[i] = i
	}
	tile := func(i int) int { return (o.Py[i]/size)*tilesX + o.Px[i]/size }
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if o.Levels[ia] != o.Levels[ib] {
			return o.Levels[ia] < o.Levels[ib]
		}
		return tile(ia) < tile(ib)
	})
	px := make([]int, len(idx))
	py := make([]int, len(idx))
	regs := make([]refRegion, len(idx))
	lvls := make([]int, len(idx))
	for n, i := range idx {
		px[n], py[n], regs[n], lvls[n] = o.Px[i], o.Py[i], o.Regions[i], o.Levels[i]
	}
	o.Px, o.Py, o.Regions, o.Levels = px, py, regs, lvls
}

func refMaxDepth(o *refOrder) int {
	m := 0
	for _, l := range o.Levels {
		if l > m {
			m = l
		}
	}
	return m
}

// diffOrder reports the first entry where o and the reference differ in
// pixel, level or clipped region, or a difference in length.
func diffOrder(o *Order, ref *refOrder) error {
	if o.Len() != ref.Len() {
		return fmt.Errorf("%d entries, reference has %d", o.Len(), ref.Len())
	}
	li := 0
	for i := 0; i < ref.Len(); i++ {
		if i > 0 && ref.Levels[i] != ref.Levels[i-1] {
			if o.Levels[li].End != i {
				return fmt.Errorf("level %d ends at %d, reference at %d", li, o.Levels[li].End, i)
			}
			li++
		}
		if o.Levels[li].Depth != ref.Levels[i] {
			return fmt.Errorf("entry %d has depth %d, reference %d", i, o.Levels[li].Depth, ref.Levels[i])
		}
		if want := ref.Py[i]*ref.Res.W + ref.Px[i]; int(o.Pixels[i]) != want {
			return fmt.Errorf("entry %d is pixel %d, reference %d", i, o.Pixels[i], want)
		}
		r := ref.Regions[i]
		want := [4]int{r.x0, r.y0, min(r.x0+r.w, ref.Res.W), min(r.y0+r.h, ref.Res.H)}
		if x0, y0, x1, y1 := o.RegionAt(i); [4]int{x0, y0, x1, y1} != want {
			return fmt.Errorf("entry %d stands in for [%d,%d)x[%d,%d), reference [%d,%d)x[%d,%d)",
				i, x0, x1, y0, y1, want[0], want[2], want[1], want[3])
		}
	}
	if len(o.Levels) != li+1 || o.Levels[li].End != ref.Len() {
		return fmt.Errorf("levels %v do not end with the reference's %d levels", o.Levels, li+1)
	}
	return nil
}

// TestOrderMatchesReference checks BuildOrder entry by entry against the
// reference on every raster up to 50×50 and on thin, common, odd and
// server-cap shapes, ungrouped and grouped by each tile size.
func TestOrderMatchesReference(t *testing.T) {
	var shapes []grid.Resolution
	for w := 1; w <= 50; w++ {
		for h := 1; h <= 50; h++ {
			shapes = append(shapes, grid.Resolution{W: w, H: h})
		}
	}
	shapes = append(shapes, grid.Resolution{W: 2048, H: 1}, grid.Resolution{W: 1, H: 2048},
		grid.Resolution{W: 640, H: 480}, grid.Resolution{W: 333, H: 777}, grid.Resolution{W: 2560, H: 1920})
	for _, res := range shapes {
		tiles := []int{0, 2, 3, 4, 16, 24, 64}
		if res.Pixels() > 1<<20 {
			// The reference holds about 1 GB at the server's cap: check
			// the serving tile size there, and nothing under the race
			// detector, which multiplies memory and finds nothing in this
			// single-goroutine comparison.
			if raceEnabled {
				continue
			}
			tiles = []int{16}
		}
		base := refBuildOrder(res)
		for _, tile := range tiles {
			ref := base
			if tile >= 2 {
				ref = &refOrder{Res: res, Px: append([]int(nil), base.Px...), Py: append([]int(nil), base.Py...),
					Regions: append([]refRegion(nil), base.Regions...), Levels: append([]int(nil), base.Levels...)}
				refGroupByTile(ref, tile)
			}
			o, err := BuildOrder(res, tile)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffOrder(o, ref); err != nil {
				t.Fatalf("%s, tile %d: %v", res, tile, err)
			}
		}
		runtime.GC()
	}
}

// TestOrderAllocation bounds what the order costs at the server's raster
// cap with the serving tile size: its int32 entries, a seen flag per pixel
// and the per-depth region lists come to about 11 bytes per pixel.
func TestOrderAllocation(t *testing.T) {
	res := grid.Resolution{W: 2560, H: 1920}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := BuildOrder(res, 16)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if perPixel := float64(after.TotalAlloc-before.TotalAlloc) / float64(o.Len()); perPixel > 24 {
		t.Errorf("the order allocated %.1f bytes per pixel, want at most 24", perPixel)
	}
}
