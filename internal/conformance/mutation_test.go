package conformance

// Mutation-style self-tests: the conformance checks are only trustworthy if
// they FAIL when handed broken inputs. Each test corrupts one artifact — a
// rendered raster, a hot mask, a bound implementation — and asserts the
// corresponding check rejects it.

import (
	"math"
	"testing"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

func mutationFixture(t *testing.T) (*kdtree.Tree, *bounds.Evaluator, *oracle.Oracle, [][]float64, []float64) {
	t.Helper()
	pts := dataset.Crime(600, 3)
	tree, err := kdtree.Build(pts, kdtree.Options{Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	gamma, weight := 0.5, 1.0/600
	ev, err := bounds.NewEvaluator(kernel.Gaussian, gamma, weight, bounds.Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.New(pts, nil, kernel.Gaussian, gamma, weight)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.ForDataset(grid.Resolution{W: 20, H: 15}, pts, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	_, queries := centralRect(g)
	return tree, ev, o, queries, o.Raster(g)
}

func TestEpsCheckRejectsCorruptRaster(t *testing.T) {
	_, _, _, _, exact := mutationFixture(t)
	vals := append([]float64(nil), exact...)
	if c := CheckEpsRaster("self", vals, exact, 0.05); !c.Pass {
		t.Fatalf("clean raster rejected: %s", c.Detail)
	}
	// Nudge one pixel just past the ε band.
	i := len(vals) / 2
	vals[i] *= 1.07
	if c := CheckEpsRaster("self", vals, exact, 0.05); c.Pass {
		t.Error("corrupted raster (7% error vs ε=5%) accepted")
	}
	// NaN must never pass.
	vals[i] = exact[i]
	vals[0] = nan()
	if c := CheckEpsRaster("self", vals, exact, 0.05); c.Pass {
		t.Error("NaN pixel accepted")
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestMaskChecksRejectFlippedBit(t *testing.T) {
	_, _, _, _, exact := mutationFixture(t)
	mu, sigma := oracle.MuSigma(exact)
	tau := mu + 0.5*sigma
	mask := oracle.HotMask(exact, tau)
	if c := CheckMaskAgainstRaster("self", mask, exact, tau, 1e-9); !c.Pass {
		t.Fatalf("oracle-derived mask rejected: %s", c.Detail)
	}
	flipped := append([]bool(nil), mask...)
	flipped[len(flipped)/3] = !flipped[len(flipped)/3]
	if c := CheckMaskAgainstRaster("self", flipped, exact, tau, 1e-9); c.Pass {
		t.Error("mask with flipped pixel accepted against raster")
	}
	if c := CheckMasksIdentical("self", mask, flipped); c.Pass {
		t.Error("mask with flipped pixel accepted as identical")
	}
}

// brokenBounder halves the upper bound — the canonical "intentionally broken
// bound" of the acceptance criteria: it stays ordered (lb ≤ ub) and correct
// in shape, wrong only in value, so only a ground-truth comparison can
// catch it.
type brokenBounder struct{ ev *bounds.Evaluator }

func (b brokenBounder) FlatBounds(t *kdtree.Tree, id int32, q []float64) (float64, float64) {
	lb, ub := b.ev.FlatBounds(t, id, q)
	return lb, lb + 0.5*(ub-lb)
}

func TestNodeBoundCheckRejectsBrokenBound(t *testing.T) {
	tree, ev, o, queries, _ := mutationFixture(t)
	if c := CheckNodeBounds("self", tree, ev, o, queries); !c.Pass {
		t.Fatalf("correct bounds rejected: %s", c.Detail)
	}
	if c := CheckNodeBounds("self", tree, brokenBounder{ev}, o, queries); c.Pass {
		t.Error("halved upper bound accepted — the sandwich check has no teeth")
	}
}

func TestHierarchyCheckRejectsInvertedChain(t *testing.T) {
	tree, ev, _, queries, _ := mutationFixture(t)
	mm, err := bounds.NewEvaluator(kernel.Gaussian, ev.Gamma, ev.Weight, bounds.MinMax, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c := CheckBoundHierarchy("self", tree, ev, mm, queries); !c.Pass {
		t.Fatalf("true hierarchy rejected: %s", c.Detail)
	}
	// Swapping tight and loose claims min-max nests inside QUAD — false.
	if c := CheckBoundHierarchy("self", tree, mm, ev, queries); c.Pass {
		t.Error("inverted hierarchy accepted")
	}
}

func TestScaledAndMonotoneChecksReject(t *testing.T) {
	_, _, _, _, exact := mutationFixture(t)
	doubled := make([]float64, len(exact))
	for i, v := range exact {
		doubled[i] = 2 * v
	}
	if c := checkScaledBy("self", exact, doubled, 2); !c.Pass {
		t.Fatalf("exact doubling rejected: %s", c.Detail)
	}
	doubled[7] *= 1.0000001
	if c := checkScaledBy("self", exact, doubled, 2); c.Pass {
		t.Error("perturbed scaling accepted")
	}

	if c := checkMonotone("self", exact, doubled); !c.Pass {
		t.Fatalf("monotone rasters rejected: %s", c.Detail)
	}
	if c := checkMonotone("self", doubled, exact); c.Pass {
		t.Error("anti-monotone rasters accepted")
	}
}

// TestRasterChecksSeeTheTail plants a defect that touches only far nodes: a
// raster missing the contribution of every point farther than x = γ·dist² =
// 50 from the pixel, which is what refinement returns when an upper bound
// drops the nodes whose x_min exceeds 50. Over a window that runs from the
// data to three widths east of it, the dropped mass is below 1e-12 of the
// raster maximum everywhere, yet it is all the density of the far pixels.
// Both raster checks must reject it.
func TestRasterChecksSeeTheTail(t *testing.T) {
	pts := dataset.Crime(600, 3)
	const gamma, weight = 0.5, 1.0 / 600
	o, err := oracle.New(pts, nil, kernel.Gaussian, gamma, weight)
	if err != nil {
		t.Fatal(err)
	}
	r := geom.BoundingRect(pts)
	r.Max[0] += 3 * (r.Max[0] - r.Min[0])
	g, err := grid.New(grid.Resolution{W: 40, H: 10}, r)
	if err != nil {
		t.Fatal(err)
	}
	exact := o.Raster(g)
	near := make([]float64, len(exact))
	q := make([]float64, 2)
	for py := 0; py < g.Res.H; py++ {
		for px := 0; px < g.Res.W; px++ {
			g.Query(px, py, q)
			var sum oracle.Sum
			for i := 0; i < pts.Len(); i++ {
				p := pts.At(i)
				dx, dy := q[0]-p[0], q[1]-p[1]
				if x := gamma * (dx*dx + dy*dy); x <= 50 {
					sum.Add(weight * kernel.Gaussian.Profile(x))
				}
			}
			near[g.Index(px, py)] = sum.Value()
		}
	}
	var maxExact, maxDropped float64
	for i := range exact {
		maxExact = math.Max(maxExact, exact[i])
		maxDropped = math.Max(maxDropped, exact[i]-near[i])
	}
	if maxDropped <= 0 || maxDropped >= 1e-12*maxExact {
		t.Fatalf("fixture: dropped mass peaks at %g against a raster maximum of %g; want it positive and below 1e-12 of it", maxDropped, maxExact)
	}
	if c := CheckEpsRaster("self", exact, exact, 0.05); !c.Pass {
		t.Fatalf("exact raster rejected: %s", c.Detail)
	}
	if c := CheckEpsRaster("self", near, exact, 0.05); c.Pass {
		t.Error("εKDV check accepted a raster without the far nodes' mass")
	}
	if c := CheckRastersWithin("self", near, exact, 0.1); c.Pass {
		t.Error("pairwise check accepted a raster without the far nodes' mass")
	}
}
