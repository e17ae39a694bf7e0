package progressive

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/quadkdv/quad/internal/grid"
)

func TestBuildOrderValidation(t *testing.T) {
	if _, err := BuildOrder(grid.Resolution{W: 0, H: 5}, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestOrderCoversEveryPixelOnce(t *testing.T) {
	for _, res := range []grid.Resolution{
		{W: 1, H: 1}, {W: 2, H: 2}, {W: 8, H: 8}, {W: 16, H: 16},
		{W: 7, H: 5}, {W: 13, H: 1}, {W: 1, H: 9}, {W: 320, H: 240}, {W: 33, H: 47},
	} {
		o, err := BuildOrder(res, 0)
		if err != nil {
			t.Fatal(err)
		}
		if o.Len() != res.Pixels() {
			t.Fatalf("%s: order has %d entries, want %d", res, o.Len(), res.Pixels())
		}
		seen := make(map[int32]bool, o.Len())
		for _, p := range o.Pixels {
			if p < 0 || int(p) >= res.Pixels() {
				t.Fatalf("%s: pixel %d out of range", res, p)
			}
			if seen[p] {
				t.Fatalf("%s: pixel %d visited twice", res, p)
			}
			seen[p] = true
		}
	}
}

// TestBuildOrderThinRaster pins the order's cost to the raster, not to its
// padded square: a 2048×1 raster pads to 2048², whose 5.6 million regions
// an unpruned split would visit (hundreds of MB in the queue). Only the
// regions that touch the raster may be visited.
func TestBuildOrderThinRaster(t *testing.T) {
	for _, res := range []grid.Resolution{{W: 2048, H: 1}, {W: 1, H: 2048}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, err := BuildOrder(res, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if o.Len() != res.Pixels() {
			t.Fatalf("%s: order has %d entries, want %d", res, o.Len(), res.Pixels())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: building the order allocated %d MB", res, alloc>>20)
		}
	}
}

// TestOrderIsCoarseToFine: the first evaluations must cover large regions,
// i.e. the prefix of the order must be spatially spread out.
func TestOrderIsCoarseToFine(t *testing.T) {
	res := grid.Resolution{W: 64, H: 64}
	o, err := BuildOrder(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First entry's region is the whole (padded) raster.
	x0, y0, x1, y1 := o.RegionAt(0)
	if x0 != 0 || y0 != 0 || x1 != 64 || y1 != 64 {
		t.Errorf("first region [%d,%d)x[%d,%d), want full raster", x0, x1, y0, y1)
	}
	// After 1+4+16 = 21 evaluations every 16x16 block should have ≥1
	// evaluated pixel.
	var blocks [4][4]bool
	for i := 0; i < 21 && i < o.Len(); i++ {
		p := int(o.Pixels[i])
		blocks[p/res.W/16][p%res.W/16] = true
	}
	covered := 0
	for _, row := range blocks {
		for _, b := range row {
			if b {
				covered++
			}
		}
	}
	if covered < 12 {
		t.Errorf("after 21 evals only %d/16 coarse blocks touched", covered)
	}
}

func TestRegionsShrink(t *testing.T) {
	res := grid.Resolution{W: 32, H: 32}
	o, _ := BuildOrder(res, 0)
	area := func(i int) int {
		x0, y0, x1, y1 := o.RegionAt(i)
		return (x1 - x0) * (y1 - y0)
	}
	if area(0) < area(o.Len()-1) {
		t.Error("regions should shrink over the order")
	}
	if a := area(o.Len() - 1); a != 1 {
		t.Errorf("final region area = %d, want 1", a)
	}
}

func TestRunCompletes(t *testing.T) {
	res := grid.Resolution{W: 16, H: 12}
	o, _ := BuildOrder(res, 0)
	evals := 0
	r, _ := Run(context.Background(), o, func(px, py int) float64 {
		evals++
		return float64(px + py)
	}, 0, 0, nil)
	if !r.Complete || r.Evaluated != res.Pixels() || evals != res.Pixels() {
		t.Fatalf("complete run: complete=%v evaluated=%d evals=%d", r.Complete, r.Evaluated, evals)
	}
	// Every pixel must hold its own exact value at the end.
	for py := 0; py < res.H; py++ {
		for px := 0; px < res.W; px++ {
			if r.Values.At(px, py) != float64(px+py) {
				t.Fatalf("pixel (%d,%d) = %g, want %d", px, py, r.Values.At(px, py), px+py)
			}
		}
	}
}

func TestRunPixelBudget(t *testing.T) {
	res := grid.Resolution{W: 32, H: 32}
	o, _ := BuildOrder(res, 0)
	r, _ := Run(context.Background(), o, func(px, py int) float64 { return 1 }, 0, 10, nil)
	if r.Evaluated != 10 {
		t.Errorf("evaluated %d, want 10", r.Evaluated)
	}
	if r.Complete {
		t.Error("partial run reported complete")
	}
	// Fill-down: every pixel must carry the value 1 even though only 10
	// were evaluated.
	for _, v := range r.Values.Data {
		if v != 1 {
			t.Fatalf("unfilled pixel value %g", v)
		}
	}
}

func TestRunTimeBudget(t *testing.T) {
	res := grid.Resolution{W: 64, H: 64}
	o, _ := BuildOrder(res, 0)
	r, _ := Run(context.Background(), o, func(px, py int) float64 {
		time.Sleep(200 * time.Microsecond)
		return 0
	}, 5*time.Millisecond, 0, nil)
	if r.Complete {
		t.Error("run under a 5ms budget with 200µs evals should not complete 4096 pixels")
	}
	if r.Evaluated == 0 {
		t.Error("no pixels evaluated")
	}
}

// TestRunBudgetBeatsLaterCancel: when the budget has lapsed and ctx has
// ended by the same poll, the run is a budget stop — the partial result and
// no error — so a budget clamped under a deadline still answers when
// evaluations between polls outlast the margin.
func TestRunBudgetBeatsLaterCancel(t *testing.T) {
	o, _ := BuildOrder(grid.Resolution{W: 32, H: 32}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := Run(ctx, o, func(px, py int) float64 {
		time.Sleep(time.Millisecond)
		cancel()
		return 1
	}, 500*time.Microsecond, 0, nil)
	if err != nil {
		t.Fatalf("budget stop reported %v", err)
	}
	if r.Evaluated != timeCheckStride {
		t.Errorf("evaluated %d, want one poll stride (%d)", r.Evaluated, timeCheckStride)
	}
}

// TestPartialApproximationImproves: with a smooth field, the average error
// of the filled raster must drop as the pixel budget grows.
func TestPartialApproximationImproves(t *testing.T) {
	res := grid.Resolution{W: 32, H: 32}
	o, _ := BuildOrder(res, 0)
	field := func(px, py int) float64 {
		x := float64(px) / 32
		y := float64(py) / 32
		return x*x + y
	}
	errAt := func(budget int) float64 {
		r, _ := Run(context.Background(), o, field, 0, budget, nil)
		var sum float64
		for py := 0; py < res.H; py++ {
			for px := 0; px < res.W; px++ {
				d := r.Values.At(px, py) - field(px, py)
				if d < 0 {
					d = -d
				}
				sum += d
			}
		}
		return sum
	}
	coarse := errAt(5)
	mid := errAt(100)
	full := errAt(res.Pixels())
	if !(coarse > mid && mid > full) {
		t.Errorf("error did not improve: %g → %g → %g", coarse, mid, full)
	}
	if full != 0 {
		t.Errorf("full run error = %g, want 0", full)
	}
}
