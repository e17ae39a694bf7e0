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
	"sort"
	"time"

	"github.com/quadkdv/quad/internal/grid"
)

// region is a rectangular pixel block [X0, X0+W) × [Y0, Y0+H) in the padded
// 2^r × 2^r raster.
type region struct {
	x0, y0, w, h int
	depth        int
}

// Order produces the quad-tree pixel evaluation order for a W×H raster: a
// breadth-first refinement of the (conceptually 2^r × 2^r padded) region,
// visiting the center pixel of each region before splitting it into four
// quadrants. Every on-screen pixel appears exactly once; the i-th prefix of
// the order is the paper's "partial result after i evaluations". For each
// order entry the region it represents is also returned, so callers can fill
// the region with the evaluated value.
type Order struct {
	Res grid.Resolution
	// Px, Py, Regions and Levels are parallel: evaluation i is pixel
	// (Px[i], Py[i]) whose value stands in for Region[i] until refined;
	// Levels[i] is the quad-tree depth of that region (0 = whole raster).
	Px, Py  []int
	Regions []region
	Levels  []int
}

// RegionAt exposes the pixel block covered by order entry i, clipped to the
// raster.
func (o *Order) RegionAt(i int) (x0, y0, x1, y1 int) {
	r := o.Regions[i]
	x0, y0 = r.x0, r.y0
	x1, y1 = r.x0+r.w, r.y0+r.h
	if x1 > o.Res.W {
		x1 = o.Res.W
	}
	if y1 > o.Res.H {
		y1 = o.Res.H
	}
	return
}

// Len returns the number of evaluations (== number of on-screen pixels).
func (o *Order) Len() int { return len(o.Px) }

// BuildOrder computes the quad-tree order for a resolution.
func BuildOrder(res grid.Resolution) (*Order, error) {
	if res.W <= 0 || res.H <= 0 {
		return nil, fmt.Errorf("progressive: non-positive resolution %s", res)
	}
	// Pad to a square power of two (the paper assumes 2^r × 2^r and notes
	// other resolutions are handled the same way: we simply skip centers
	// that fall off-screen).
	side := 1
	for side < res.W || side < res.H {
		side <<= 1
	}
	o := &Order{Res: res}
	seen := make([]bool, res.W*res.H)
	queue := []region{{0, 0, side, side, 0}}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if r.x0 >= res.W || r.y0 >= res.H {
			// Off-screen, and so is every quadrant below it: splitting it
			// would cost O(side²) on a W×1 raster and emit nothing.
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
					region{r.x0, r.y0, hw, hh, r.depth + 1},
					region{r.x0 + hw, r.y0, r.w - hw, hh, r.depth + 1},
					region{r.x0, r.y0 + hh, hw, r.h - hh, r.depth + 1},
					region{r.x0 + hw, r.y0 + hh, r.w - hw, r.h - hh, r.depth + 1},
				)
			} else if r.w > 1 {
				queue = append(queue, region{r.x0, r.y0, hw, r.h, r.depth + 1}, region{r.x0 + hw, r.y0, r.w - hw, r.h, r.depth + 1})
			} else {
				queue = append(queue, region{r.x0, r.y0, r.w, hh, r.depth + 1}, region{r.x0, r.y0 + hh, r.w, r.h - hh, r.depth + 1})
			}
		}
	}
	// Sweep any pixel a skipped off-screen center left unvisited (possible
	// only at extreme aspect ratios); emit them as 1×1 regions so the order
	// always covers the raster.
	for py := 0; py < res.H; py++ {
		for px := 0; px < res.W; px++ {
			if !seen[py*res.W+px] {
				o.Px = append(o.Px, px)
				o.Py = append(o.Py, py)
				o.Regions = append(o.Regions, region{px, py, 1, 1, maxDepth(o) + 1})
				o.Levels = append(o.Levels, maxDepth(o)+1)
			}
		}
	}
	return o, nil
}

// GroupByTile stably reorders each refinement level's evaluations so pixels
// falling in the same size×size tile are visited consecutively within the
// level. Raster semantics are unchanged — regions within one level are
// disjoint, so any level-internal order yields the same spatially complete
// raster at every level boundary, and Levels stays monotone for the
// streaming runner — but tile-warmed evaluators (the render layer's
// progressive εKDV path) get to touch each tile's frontier in bursts
// instead of thrashing across the raster.
func (o *Order) GroupByTile(size int) {
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
	regs := make([]region, len(idx))
	lvls := make([]int, len(idx))
	for n, i := range idx {
		px[n], py[n], regs[n], lvls[n] = o.Px[i], o.Py[i], o.Regions[i], o.Levels[i]
	}
	o.Px, o.Py, o.Regions, o.Levels = px, py, regs, lvls
}

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
	level := 0
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
		if o.Levels[i] > level {
			// A new, finer level begins: the previous level is complete.
			if emit != nil && !emit(Snapshot{
				Values:    vals.Data,
				Evaluated: res.Evaluated,
				Level:     level,
				Elapsed:   time.Since(start),
			}) {
				stopped = true
				break
			}
			level = o.Levels[i]
		}
		px, py := o.Px[i], o.Py[i]
		v := eval(px, py)
		exact[py*o.Res.W+px] = true
		res.Evaluated++
		x0, y0, x1, y1 := o.RegionAt(i)
		for y := y0; y < y1; y++ {
			row := y * o.Res.W
			for x := x0; x < x1; x++ {
				if !exact[row+x] || (x == px && y == py) {
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
			Level:     level,
			Elapsed:   res.Elapsed,
			Final:     true,
		})
	}
	return res, ctxErr
}

// maxDepth returns the deepest level recorded so far in the order.
func maxDepth(o *Order) int {
	m := 0
	for _, l := range o.Levels {
		if l > m {
			m = l
		}
	}
	return m
}
