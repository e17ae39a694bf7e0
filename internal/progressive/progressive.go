// Package progressive implements the paper's Section 6: a progressive
// visualization framework that evaluates pixels in quad-tree order
// (Figure 13) so that a coarse but spatially complete color map is available
// almost immediately and refines continuously. Each evaluated pixel's value
// fills its whole sub-region until finer evaluations overwrite it; the
// process can be stopped at any time (wall-clock budget or pixel budget),
// and when left to run it evaluates every pixel exactly once.
package progressive

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/quadkdv/quad/internal/grid"
)

// Order is the quad-tree pixel evaluation order for a W×H raster: a
// breadth-first refinement of the raster padded to a 2^r × 2^r square,
// visiting the center pixel of each region before splitting it into four
// quadrants. Every on-screen pixel appears exactly once; the i-th prefix of
// the order is the paper's "partial result after i evaluations". A region
// of depth L is a square of side 2^r/2^L aligned to multiples of its side,
// so the region an entry stands in for until refined follows from its
// pixel and depth (RegionAt).
type Order struct {
	Res grid.Resolution
	// Pixels lists the raster's pixel indices y·W + x in evaluation order.
	Pixels []int32
	// Levels are the quad-tree levels that evaluate a pixel, coarse to
	// fine: level j holds Pixels[Levels[j-1].End:Levels[j].End].
	Levels []Level
	side   int // the padded square's side, 2^r
}

// Level is one quad-tree level of an Order: it ends before Pixels[End],
// and its regions have depth Depth (0 = the whole padded raster).
type Level struct {
	End, Depth int
}

// RegionAt returns the pixel block order entry i stands in for, clipped to
// the raster.
func (o *Order) RegionAt(i int) (x0, y0, x1, y1 int) {
	l := sort.Search(len(o.Levels), func(j int) bool { return o.Levels[j].End > i })
	return o.region(o.Levels[l].Depth, int(o.Pixels[i]))
}

// region returns the block of depth depth that pixel p evaluates, clipped
// to the raster. A depth's center pixel lies inside its region also where
// it was clamped to the raster's last row or column.
func (o *Order) region(depth, p int) (x0, y0, x1, y1 int) {
	s := o.side >> depth
	x0, y0 = p%o.Res.W/s*s, p/o.Res.W/s*s
	return x0, y0, min(x0+s, o.Res.W), min(y0+s, o.Res.H)
}

// Len returns the number of evaluations (== number of on-screen pixels).
func (o *Order) Len() int { return len(o.Pixels) }

// BuildOrder computes the quad-tree order for a resolution. A tile edge of
// 2 or more stably reorders each level's pixels by the tile×tile block they
// fall in, blocks in row-major order, so that tile-warmed evaluators (the
// render layer's progressive εKDV path) touch each tile's frontier in
// bursts instead of thrashing across the raster. The regions of one level
// are disjoint, so the raster at every level boundary is unchanged.
func BuildOrder(res grid.Resolution, tile int) (*Order, error) {
	if res.W <= 0 || res.H <= 0 {
		return nil, fmt.Errorf("progressive: non-positive resolution %s", res)
	}
	if res.W > math.MaxInt32/res.H {
		return nil, fmt.Errorf("progressive: resolution %s has more than 2^31-1 pixels", res)
	}
	// Pad to a square power of two (the paper assumes 2^r × 2^r and notes
	// other resolutions are handled the same way: centers that fall
	// off-screen are clamped to the last row or column, and evaluated once).
	side := 1
	for side < res.W || side < res.H {
		side <<= 1
	}
	n := res.W * res.H
	o := &Order{Res: res, Pixels: make([]int32, 0, n), side: side}
	seen := make([]bool, n)
	var tiles []int
	if tile >= 2 {
		tiles = make([]int, ceilDiv(res.W, tile)*ceilDiv(res.H, tile)+1)
	}
	// cells are the current depth's regions that touch the raster, in
	// breadth-first order, as y·cols + x on the depth's lattice of s×s
	// regions. A region off the raster is not split: its quadrants are off
	// it too. Breadth-first order within a depth is the Z order of the
	// lattice, y above x.
	cells := []int32{0}
	for depth, s := 0, side; ; depth, s = depth+1, s/2 {
		cols := ceilDiv(res.W, s)
		start := len(o.Pixels)
		for _, c := range cells {
			px := min(int(c)%cols*s+s/2, res.W-1)
			py := min(int(c)/cols*s+s/2, res.H-1)
			if p := py*res.W + px; !seen[p] {
				seen[p] = true
				o.Pixels = append(o.Pixels, int32(p))
			}
		}
		var next []int32
		if s > 1 {
			h := s / 2
			hcols, hrows := ceilDiv(res.W, h), ceilDiv(res.H, h)
			next = make([]int32, 0, hcols*hrows)
			for _, c := range cells {
				x, y := int(c)%cols*2, int(c)/cols*2
				for _, q := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
					if qx, qy := x+q[0], y+q[1]; qx < hcols && qy < hrows {
						next = append(next, int32(qy*hcols+qx))
					}
				}
			}
		}
		if len(o.Pixels) > start {
			if tiles != nil {
				// A region evaluates at most one pixel, so the level fits
				// in cells, which next has replaced.
				groupByTile(o.Pixels[start:], cells, tiles, res.W, tile)
			}
			o.Levels = append(o.Levels, Level{End: len(o.Pixels), Depth: depth})
		}
		if next == nil {
			return o, nil
		}
		cells = next
	}
}

// groupByTile stably sorts the pixel indices level by the size×size tile
// they fall in, counting into tiles (one slot per tile plus one) and
// copying through buf, which must hold len(level) entries.
func groupByTile(level, buf []int32, tiles []int, w, size int) {
	tilesX := ceilDiv(w, size)
	tileOf := func(p int32) int { return int(p)/w/size*tilesX + int(p)%w/size }
	clear(tiles)
	for _, p := range level {
		tiles[tileOf(p)+1]++
	}
	for t := 1; t < len(tiles); t++ {
		tiles[t] += tiles[t-1]
	}
	buf = append(buf[:0], level...)
	for _, p := range buf {
		t := tileOf(p)
		level[tiles[t]] = p
		tiles[t]++
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Result is the state of a progressive run.
type Result struct {
	// Values is the current color-map raster: exactly evaluated pixels hold
	// their value, the rest hold the value of the smallest evaluated region
	// containing them.
	Values *grid.Values
	// Evaluated is the number of pixels computed exactly.
	Evaluated int
	// Elapsed is the wall-clock time consumed.
	Elapsed time.Duration
	// Complete reports whether every pixel was evaluated.
	Complete bool
}

// timeCheckStride balances budget fidelity against clock overhead: the
// wall-clock and the context are consulted every timeCheckStride
// evaluations.
const timeCheckStride = 8

// Run executes the progressive evaluation with eval(px, py) producing each
// pixel's density value. It stops when the wall-clock budget is exhausted
// (budget ≤ 0 means unlimited), maxPixels evaluations were made
// (maxPixels ≤ 0 means all), or ctx is cancelled, which is polled every
// timeCheckStride evaluations. The fill-down of region values happens as it
// goes, so the raster is spatially complete after the very first
// evaluation. emit, when non-nil, is invoked at every completed quad-tree
// refinement level and once at the end; emit returning false stops the run
// (the "user terminates the process at any time" interaction of paper
// Section 6). The returned Result is always valid: on cancellation it holds
// the partial raster accumulated so far, alongside the non-nil context
// error, and no final snapshot is emitted. A lapsed budget wins over a
// cancellation first seen at the same poll.
func Run(ctx context.Context, o *Order, eval func(px, py int) float64, budget time.Duration, maxPixels int, emit func(Snapshot) bool) (*Result, error) {
	start := time.Now()
	vals := grid.NewValues(o.Res)
	exact := make([]bool, o.Res.W*o.Res.H)
	res := &Result{Values: vals}
	limit := o.Len()
	if maxPixels > 0 && maxPixels < limit {
		limit = maxPixels
	}
	li := 0 // the level of entry i
	stopped := false
	var ctxErr error
	for i := 0; i < limit; i++ {
		if i%timeCheckStride == 0 {
			// Budget first: a run whose budget has lapsed returns its partial
			// result even if ctx ended since the last poll, so a budget set
			// under a deadline is not lost to slow evaluations between polls.
			if budget > 0 && time.Since(start) > budget {
				break
			}
			if ctxErr = ctx.Err(); ctxErr != nil {
				stopped = true
				break
			}
		}
		if i == o.Levels[li].End {
			// A new, finer level begins: the previous level is complete.
			if emit != nil && !emit(Snapshot{
				Values:    vals.Data,
				Evaluated: res.Evaluated,
				Level:     o.Levels[li].Depth,
				Elapsed:   time.Since(start),
			}) {
				stopped = true
				break
			}
			li++
		}
		p := int(o.Pixels[i])
		px, py := p%o.Res.W, p/o.Res.W
		v := eval(px, py)
		exact[p] = true
		res.Evaluated++
		x0, y0, x1, y1 := o.region(o.Levels[li].Depth, p)
		for y := y0; y < y1; y++ {
			row := y * o.Res.W
			for x := x0; x < x1; x++ {
				if !exact[row+x] || row+x == p {
					vals.Data[row+x] = v
				}
			}
		}
	}
	res.Elapsed = time.Since(start)
	res.Complete = res.Evaluated == o.Len()
	if emit != nil && !stopped {
		emit(Snapshot{
			Values:    vals.Data,
			Evaluated: res.Evaluated,
			Level:     o.Levels[li].Depth,
			Elapsed:   res.Elapsed,
			Final:     true,
		})
	}
	return res, ctxErr
}
