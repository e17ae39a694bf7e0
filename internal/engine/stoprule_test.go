package engine

import (
	"fmt"
	"math"
	"testing"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
	"github.com/quadkdv/quad/internal/stats"
)

// refRefine is the stop rule's reference: the refine (f == nil) or
// refineFrom loop with the pending sums recomputed at every iteration, so
// it stops at the first iteration whose recomputed sums pass. It returns
// that iteration count and the bounds there, and leaves f's hit counters
// alone.
func refRefine(e *FlatEngine, f *FlatFrontier, q []float64, done func(lb, ub float64) bool) (lb, ub float64, iters int) {
	t := e.Tree
	var h queue
	var p pending
	var baseLB, baseUB float64
	if f == nil {
		rlb, rub := e.Ev.FlatBounds(t, 0, q)
		p = h.start(fitem{id: 0, seed: -1, lb: rlb, ub: rub})
	} else {
		p = h.seed(f.seeds, f.seedLB, f.seedUB)
		baseLB, baseUB = f.base(q)
	}
	var exactAcc float64
	for ; len(h.items) > 0; iters++ {
		if p = h.sums(); done(baseLB+exactAcc+p.lb, baseUB+exactAcc+p.ub) {
			break
		}
		it := h.pop()
		left := t.Left[it.id]
		switch {
		case left == kdtree.NoChild && it.seed >= 0:
			llb, lub := e.Ev.FlatBounds(t, it.id, q)
			h.push(fitem{id: it.id, seed: -1, lb: llb, ub: lub})
		case left == kdtree.NoChild:
			exactAcc += e.Ev.FlatExactNode(t, it.id, q)
		default:
			right := t.Right[it.id]
			llb, lub := e.Ev.FlatBounds(t, left, q)
			rlb, rub := e.Ev.FlatBounds(t, right, q)
			h.push(fitem{id: left, seed: -1, lb: llb, ub: lub})
			h.push(fitem{id: right, seed: -1, lb: rlb, ub: rub})
		}
	}
	lb, ub = h.bounds(p, baseLB+exactAcc, baseUB+exactAcc)
	return lb, ub, iters
}

// churnFixture builds the engine and raster grid of one key in the serving
// benchmark's dataset-churn shape: a 50k-point 2-d analogue with the
// default bandwidth, Gaussian QUAD bounds and a 16×16 raster over the whole
// extent.
func churnFixture(t *testing.T, name string, seed int64) (*FlatEngine, *grid.Grid, *oracle.Oracle) {
	t.Helper()
	pts, err := dataset.Generate2D(name, 50000, seed)
	if err != nil {
		t.Fatal(err)
	}
	bw := stats.ScottsRule(pts, kernel.Gaussian)
	o, err := oracle.New(pts, nil, kernel.Gaussian, bw.Gamma, bw.Weight)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.ForDataset(grid.Resolution{W: 16, H: 16}, pts, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := kdtree.Build(pts.Clone(), kdtree.Options{Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := bounds.NewEvaluator(kernel.Gaussian, bw.Gamma, bw.Weight, bounds.Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFlat(tree, ev)
	if err != nil {
		t.Fatal(err)
	}
	return e, g, o
}

// TestStopsAtFirstCertifiedIteration checks the stop rule on the renders of
// the ledger's eps/churn cells, in dataset-churn's render shape, whose
// corner pixels are tails far below the root bounds: every pixel, refined
// from the root or warm-started from the two-level tile frontier as a
// render does, stops exactly at the first iteration at which the
// recomputed pending sums pass, with the reference's bounds. Its value is
// within ε·F of the Kahan oracle, with no absolute slack.
func TestStopsAtFirstCertifiedIteration(t *testing.T) {
	const eps = 0.1
	done := func(lb, ub float64) bool { return ub <= (1+eps)*lb }
	keys := []struct {
		name string
		seed int64
	}{{"hep", 500}, {"hep", 501}, {"elnino", 500}, {"elnino", 501}, {"home", 500}, {"home", 501}, {"crime", 500}}
	if raceEnabled {
		keys = keys[:1]
	}
	for _, key := range keys {
		t.Run(fmt.Sprintf("%s/seed=%d", key.name, key.seed), func(t *testing.T) {
			e, g, o := churnFixture(t, key.name, key.seed)
			exact := o.Raster(g)
			check := func(mode string, px, py int, q []float64, v float64, st Stats, f *FlatFrontier) {
				t.Helper()
				lb, ub, iters := refRefine(e, f, q, done)
				if st.Iterations != iters || st.LB != lb || st.UB != ub {
					t.Errorf("%s pixel (%d,%d): stopped after %d iterations at [%g, %g]; the first passing recomputed sums are after %d, at [%g, %g]",
						mode, px, py, st.Iterations, st.LB, st.UB, iters, lb, ub)
				}
				if F := exact[g.Index(px, py)]; math.Abs(v-F) > eps*F {
					t.Errorf("%s pixel (%d,%d): %g, exact %g: relative error %g > ε", mode, px, py, v, F, math.Abs(v-F)/F)
				}
			}
			q := make([]float64, 2)
			for py := 0; py < 16; py++ {
				for px := 0; px < 16; px++ {
					g.Query(px, py, q)
					v, st := e.EvalEps(q, eps)
					check("root", px, py, q, v, st, nil)
				}
			}

			te := NewFlatTileEngine(e)
			rect := func(x0, y0, x1, y1 int) geom.Rect {
				r := geom.Rect{Min: make([]float64, 2), Max: make([]float64, 2)}
				g.Query(x0, y0, r.Min)
				g.Query(x1-1, y1-1, r.Max)
				return r
			}
			var coarse, sub FlatFrontier
			te.BuildFrontierEpsCoarse(rect(0, 0, 16, 16), eps, &coarse)
			for sy := 0; sy < 16; sy += 4 {
				for sx := 0; sx < 16; sx += 4 {
					te.BuildFrontierEpsFrom(&coarse, rect(sx, sy, sx+4, sy+4), eps, &sub)
					for y := sy; y < sy+4; y++ {
						for i := 0; i < 4; i++ {
							x := sx + i
							if (y-sy)%2 == 1 {
								x = sx + 3 - i
							}
							g.Query(x, y, q)
							v, st := e.EvalEpsFrom(&sub, q, eps)
							// The reference runs after the pixel, on a queue seeded
							// from the frontier the pixel saw: Promote, which
							// changes it, comes after both.
							check("warm", x, y, q, v, st, &sub)
							te.Promote(&sub)
						}
					}
				}
			}
		})
	}
}
