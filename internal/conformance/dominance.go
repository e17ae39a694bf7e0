package conformance

import (
	"fmt"
	"math"
	"math/rand"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

// Bounder is the node-bound surface the dominance checks judge. It is an
// interface (satisfied by *bounds.Evaluator) so the mutation self-tests can
// inject a deliberately broken implementation and prove the checks catch it.
type Bounder interface {
	FlatBounds(t *kdtree.Tree, id int32, q []float64) (lb, ub float64)
}

// boundTol is the floating-point slack granted to a bound violation check:
// relative to the magnitudes involved plus a tiny absolute floor (observed
// violations of correct bounds sit at the denormal scale; broken bounds
// violate by orders of magnitude more).
func boundTol(vals ...float64) float64 {
	var m float64
	for _, v := range vals {
		m += math.Abs(v)
	}
	return 1e-12*m + 1e-300
}

// CheckNodeBounds walks every node of the tree and asserts the sandwich
// invariant LB_R(q) ≤ F_R(q) ≤ UB_R(q) for each query, with F from the
// Kahan-summed oracle.
func CheckNodeBounds(name string, t *kdtree.Tree, b Bounder, o *oracle.Oracle, queries [][]float64) Check {
	var worst float64
	var detail string
	bad := 0
	for _, q := range queries {
		t.Walk(func(id int32) bool {
			lb, ub := b.FlatBounds(t, id, q)
			f := o.NodeDensity(t, id, q)
			tol := boundTol(f, lb, ub)
			if v := math.Max(lb-f, f-ub); v > tol {
				bad++
				if v > worst {
					worst = v
					detail = fmt.Sprintf("node [%d,%d) at q=%v: lb=%.17g f=%.17g ub=%.17g",
						t.Start[id], t.End[id], q, lb, f, ub)
				}
			}
			return true
		})
	}
	c := Check{Name: name, Pass: bad == 0, MaxRelErr: worst}
	if bad > 0 {
		c.Detail = fmt.Sprintf("%d node/query violations; worst %s", bad, detail)
	}
	return c
}

// CheckBoundHierarchy asserts the paper's dominance chain on every node: the
// tight method's interval nests inside the loose one's,
// [lbT, ubT] ⊆ [lbL, ubL] up to floating-point slack.
func CheckBoundHierarchy(name string, t *kdtree.Tree, tight, loose Bounder, queries [][]float64) Check {
	var worst float64
	var detail string
	bad := 0
	for _, q := range queries {
		t.Walk(func(id int32) bool {
			lbT, ubT := tight.FlatBounds(t, id, q)
			lbL, ubL := loose.FlatBounds(t, id, q)
			tol := boundTol(lbT, ubT, lbL, ubL)
			if v := math.Max(lbL-lbT, ubT-ubL); v > tol {
				bad++
				if v > worst {
					worst = v
					detail = fmt.Sprintf("node [%d,%d) at q=%v: tight [%.17g,%.17g] vs loose [%.17g,%.17g]",
						t.Start[id], t.End[id], q, lbT, ubT, lbL, ubL)
				}
			}
			return true
		})
	}
	c := Check{Name: name, Pass: bad == 0, MaxRelErr: worst}
	if bad > 0 {
		c.Detail = fmt.Sprintf("%d nesting violations; worst %s", bad, detail)
	}
	return c
}

// CheckRectBounds asserts the tile-uniform contract: FlatRectBounds(t, id,
// rect) brackets F_R(q) for every query inside rect — the invariant the
// tile-shared render phase rests on. All queries must lie inside rect.
func CheckRectBounds(name string, t *kdtree.Tree, ev *bounds.Evaluator, o *oracle.Oracle, rect geom.Rect, queries [][]float64) Check {
	bad := 0
	var detail string
	t.Walk(func(id int32) bool {
		lb, ub := ev.FlatRectBounds(t, id, rect)
		for _, q := range queries {
			f := o.NodeDensity(t, id, q)
			if v := math.Max(lb-f, f-ub); v > boundTol(f, lb, ub) {
				bad++
				if detail == "" {
					detail = fmt.Sprintf("node [%d,%d) at q=%v: rect bounds [%.17g,%.17g] miss f=%.17g",
						t.Start[id], t.End[id], q, lb, ub, f)
				}
			}
		}
		return true
	})
	c := Check{Name: name, Pass: bad == 0}
	if bad > 0 {
		c.Detail = fmt.Sprintf("%d violations; first %s", bad, detail)
	}
	return c
}

// checkEnvelope accumulates the rect envelopes of a covering node set and
// asserts lbEnv(q) ≤ F_P(q) ≤ ubEnv(q) for every query in the rect — the
// aggregate form the tile-shared phase evaluates per pixel.
func checkEnvelope(name string, t *kdtree.Tree, ev *bounds.Evaluator, o *oracle.Oracle, rect geom.Rect, queries [][]float64) Check {
	cover := coverNodes(t, 2)
	var lbEnv, ubEnv bounds.TileEnvelope
	lbEnv.Reset(t.Dim())
	ubEnv.Reset(t.Dim())
	center := make([]float64, t.Dim())
	for i := range center {
		center[i] = (rect.Min[i] + rect.Max[i]) / 2
	}
	for _, id := range cover {
		if !ev.FlatAccumulateRectEnvelope(t, id, rect, center, &lbEnv, &ubEnv) {
			return Check{Name: name, Pass: true, Info: true, Detail: "envelope unsupported for this configuration"}
		}
	}
	bad := 0
	var detail string
	for _, q := range queries {
		f := o.Density(q)
		lb := lbEnv.Eval(q, center)
		ub := ubEnv.Eval(q, center)
		if v := math.Max(lb-f, f-ub); v > boundTol(f, lb, ub) {
			bad++
			if detail == "" {
				detail = fmt.Sprintf("q=%v: envelope [%.17g,%.17g] misses f=%.17g", q, lb, ub, f)
			}
		}
	}
	c := Check{Name: name, Pass: bad == 0}
	if bad > 0 {
		c.Detail = fmt.Sprintf("%d violations; first %s", bad, detail)
	}
	return c
}

// coverNodes returns a set of nodes at the given depth (or shallower leaves)
// that partitions the point set.
func coverNodes(t *kdtree.Tree, depth int) []int32 {
	var out []int32
	var rec func(id int32, d int)
	rec = func(id int32, d int) {
		if t.IsLeaf(id) || d >= depth {
			out = append(out, id)
			return
		}
		rec(t.Left[id], d+1)
		rec(t.Right[id], d+1)
	}
	rec(0, 0)
	return out
}

// runDominance builds each kernel's tree and evaluators and runs the node
// sandwich, interval-nesting hierarchy, rect-bound, and envelope checks.
func runDominance(cfg *Config, rep *Report) error {
	g, err := grid.ForDataset(cfg.Res, cfg.Pts, 0.02)
	if err != nil {
		return fmt.Errorf("conformance: dominance grid: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	queries := sampleQueries(g, rng)
	rect, rectQueries := centralRect(g)

	tree, err := kdtree.Build(cfg.Pts, kdtree.Options{Gram: true})
	if err != nil {
		return fmt.Errorf("conformance: dominance tree: %w", err)
	}
	for _, k := range cfg.Kernels {
		ref, err := quad.New(cfg.Pts.Coords, 2, quad.WithKernel(qKernel(k)))
		if err != nil {
			return fmt.Errorf("conformance: dominance reference build (%s): %w", k, err)
		}
		gamma, weight := ref.Gamma(), ref.Weight()
		o, err := oracle.New(cfg.Pts, nil, k, gamma, weight)
		if err != nil {
			return fmt.Errorf("conformance: dominance oracle (%s): %w", k, err)
		}
		evQuad, err := bounds.NewEvaluator(k, gamma, weight, bounds.Quadratic, 2)
		if err != nil {
			return fmt.Errorf("conformance: evaluator (%s): %w", k, err)
		}
		evMM, err := bounds.NewEvaluator(k, gamma, weight, bounds.MinMax, 2)
		if err != nil {
			return fmt.Errorf("conformance: evaluator (%s): %w", k, err)
		}
		rep.add(CheckNodeBounds(fmt.Sprintf("bounds/sandwich/%s/quad", k), tree, evQuad, o, queries))
		rep.add(CheckNodeBounds(fmt.Sprintf("bounds/sandwich/%s/minmax", k), tree, evMM, o, queries))
		if k != kernel.Quartic {
			// The quartic kernel's quadratic envelope is only partially
			// exact: on far nodes it degrades to the profile-max clamp,
			// which min-max beats, so interval nesting does not hold for it
			// (only the sandwich does). Every other kernel's quadratic
			// interval nests inside min-max's.
			rep.add(CheckBoundHierarchy(fmt.Sprintf("bounds/hierarchy/%s/quad-in-minmax", k), tree, evQuad, evMM, queries))
		}
		if k.HasLinearBounds() {
			evLin, err := bounds.NewEvaluator(k, gamma, weight, bounds.Linear, 2)
			if err != nil {
				return fmt.Errorf("conformance: evaluator (%s): %w", k, err)
			}
			rep.add(CheckNodeBounds(fmt.Sprintf("bounds/sandwich/%s/karl", k), tree, evLin, o, queries))
			rep.add(CheckBoundHierarchy(fmt.Sprintf("bounds/hierarchy/%s/quad-in-karl", k), tree, evQuad, evLin, queries))
			rep.add(CheckBoundHierarchy(fmt.Sprintf("bounds/hierarchy/%s/karl-in-minmax", k), tree, evLin, evMM, queries))
			rep.add(checkEnvelope(fmt.Sprintf("bounds/envelope/%s", k), tree, evQuad, o, rect, rectQueries))
		}
		rep.add(CheckRectBounds(fmt.Sprintf("bounds/rect/%s/quad", k), tree, evQuad, o, rect, rectQueries))
		rep.add(CheckRectBounds(fmt.Sprintf("bounds/rect/%s/minmax", k), tree, evMM, o, rect, rectQueries))
	}
	return nil
}

// sampleQueries mixes structured pixel centers (corners, center) with
// seeded uniform samples over the window, including points outside the data
// bounding box (the rect-distance code has separate inside/outside paths).
func sampleQueries(g *grid.Grid, rng *rand.Rand) [][]float64 {
	var out [][]float64
	add := func(px, py int) {
		q := make([]float64, 2)
		g.Query(px, py, q)
		out = append(out, q)
	}
	add(0, 0)
	add(g.Res.W-1, g.Res.H-1)
	add(g.Res.W/2, g.Res.H/2)
	add(g.Res.W/4, 3*g.Res.H/4)
	lo, hi := make([]float64, 2), make([]float64, 2)
	g.Query(0, 0, lo)
	g.Query(g.Res.W-1, g.Res.H-1, hi)
	for i := 0; i < 5; i++ {
		q := make([]float64, 2)
		for j := range q {
			span := hi[j] - lo[j]
			q[j] = lo[j] - 0.2*span + 1.4*span*rng.Float64()
		}
		out = append(out, q)
	}
	return out
}

// centralRect returns the data-space rectangle spanned by a central 4×4
// pixel block together with the block's pixel-center queries — all inside
// the rect by construction.
func centralRect(g *grid.Grid) (geom.Rect, [][]float64) {
	x0, y0 := g.Res.W/2-2, g.Res.H/2-2
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	x1, y1 := x0+3, y0+3
	if x1 >= g.Res.W {
		x1 = g.Res.W - 1
	}
	if y1 >= g.Res.H {
		y1 = g.Res.H - 1
	}
	rect := geom.Rect{Min: make([]float64, 2), Max: make([]float64, 2)}
	g.Query(x0, y0, rect.Min)
	g.Query(x1, y1, rect.Max)
	var queries [][]float64
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			q := make([]float64, 2)
			g.Query(x, y, q)
			queries = append(queries, q)
		}
	}
	return rect, queries
}
