package engine

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

func clusteredPoints(rng *rand.Rand, n int) geom.Points {
	coords := make([]float64, 0, n*2)
	for i := 0; i < n; i++ {
		cx, cy := float64(i%4)*5, float64((i/4)%3)*5
		coords = append(coords, cx+rng.NormFloat64()*0.5, cy+rng.NormFloat64()*0.5)
	}
	return geom.NewPoints(coords, 2)
}

func buildEngine(t *testing.T, pts geom.Points, kern kernel.Kernel, gamma float64, m bounds.Method) *FlatEngine {
	t.Helper()
	w := 1 / float64(pts.Len())
	ev, err := bounds.NewEvaluator(kern, gamma, w, m, pts.Dim)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := kdtree.Build(pts, kdtree.Options{LeafSize: 8, Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFlat(tr, ev)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	pts := clusteredPoints(rng, 100)
	ev, err := bounds.NewEvaluator(kernel.Gaussian, 1, 0.01, bounds.Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFlat(nil, ev); err == nil {
		t.Error("NewFlat with nil tree should fail")
	}
	// Gram-less tree with a Gram-needing evaluator must be rejected.
	tr, err := kdtree.Build(pts, kdtree.Options{Gram: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFlat(tr, ev); err == nil {
		t.Error("NewFlat with Gram-less tree and Gaussian quadratic bounds should fail")
	}
}

// TestEpsGuarantee: for every kernel and method, the εKDV answer must be
// within ε of the exact density.
func TestEpsGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := clusteredPoints(rng, 800)
	for _, kern := range kernel.All() {
		methods := []bounds.Method{bounds.MinMax, bounds.Quadratic}
		if kern.HasLinearBounds() {
			methods = append(methods, bounds.Linear)
		}
		for _, m := range methods {
			for _, eps := range []float64{0.01, 0.05, 0.2} {
				e := buildEngine(t, pts.Clone(), kern, 0.5, m)
				for trial := 0; trial < 25; trial++ {
					q := []float64{rng.Float64()*20 - 2, rng.Float64()*15 - 2}
					got, _ := e.EvalEps(q, eps)
					exact := bounds.ExactScan(e.Tree.Pts, nil, kern, 0.5, 1/float64(pts.Len()), q)
					if exact == 0 {
						if got != 0 {
							t.Fatalf("%s/%s ε=%g: got %g for zero density", kern, m, eps, got)
						}
						continue
					}
					if rel := math.Abs(got-exact) / exact; rel > eps {
						t.Fatalf("%s/%s ε=%g: relative error %g exceeds ε (got %g, exact %g)",
							kern, m, eps, rel, got, exact)
					}
				}
			}
		}
	}
}

// TestTauAgreement: τKDV classification must agree with the exact
// classification for thresholds away from the numerical knife edge.
func TestTauAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pts := clusteredPoints(rng, 800)
	for _, kern := range []kernel.Kernel{kernel.Gaussian, kernel.Triangular, kernel.Exponential} {
		for _, m := range []bounds.Method{bounds.MinMax, bounds.Quadratic} {
			e := buildEngine(t, pts.Clone(), kern, 0.5, m)
			w := 1 / float64(pts.Len())
			for trial := 0; trial < 60; trial++ {
				q := []float64{rng.Float64()*20 - 2, rng.Float64()*15 - 2}
				exact := bounds.ExactScan(e.Tree.Pts, nil, kern, 0.5, w, q)
				for _, frac := range []float64{0.5, 0.9, 1.1, 2} {
					tau := exact * frac
					if tau == 0 || math.Abs(tau-exact) < 1e-12*exact {
						continue
					}
					got, _ := e.EvalTau(q, tau)
					if got != (exact >= tau) {
						t.Fatalf("%s/%s: τ=%g exact=%g classified %v", kern, m, tau, exact, got)
					}
				}
			}
		}
	}
}

func TestTauNearBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pts := clusteredPoints(rng, 200)
	e := buildEngine(t, pts, kernel.Gaussian, 0.5, bounds.Quadratic)
	q := []float64{5, 5}
	exact := e.Exact(q)
	// τ a hair below/above the density must classify hot/cold. (τ exactly
	// equal to F is a floating-point knife edge with no defined answer.)
	if hot, _ := e.EvalTau(q, exact*(1-1e-9)); !hot {
		t.Error("pixel with F just above τ should classify hot")
	}
	if hot, _ := e.EvalTau(q, exact*(1+1e-9)); hot {
		t.Error("pixel with F just below τ should classify cold")
	}
}

func TestExactMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pts := clusteredPoints(rng, 300)
	e := buildEngine(t, pts, kernel.Gaussian, 0.7, bounds.Quadratic)
	q := []float64{3, 3}
	got := e.Exact(q)
	want := bounds.ExactScan(e.Tree.Pts, nil, kernel.Gaussian, 0.7, 1.0/300, q)
	if math.Abs(got-want) > 1e-12*(1+want) {
		t.Errorf("Exact = %g, want %g", got, want)
	}
}

// TestEpsZeroIsExact: ε=0 must refine to the exact answer.
func TestEpsZeroIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts := clusteredPoints(rng, 300)
	e := buildEngine(t, pts, kernel.Gaussian, 0.7, bounds.Quadratic)
	for trial := 0; trial < 10; trial++ {
		q := []float64{rng.Float64() * 15, rng.Float64() * 10}
		got, _ := e.EvalEps(q, 0)
		want := e.Exact(q)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("ε=0 result %g != exact %g", got, want)
		}
	}
}

// TestQuadPrunesMoreThanMinMax is the mechanism behind the paper's speedup:
// tighter bounds terminate with fewer leaf scans.
func TestQuadPrunesMoreThanMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	pts := clusteredPoints(rng, 4000)
	eq := buildEngine(t, pts.Clone(), kernel.Gaussian, 0.5, bounds.Quadratic)
	em := buildEngine(t, pts.Clone(), kernel.Gaussian, 0.5, bounds.MinMax)
	var quadPoints, mmPoints int
	for trial := 0; trial < 30; trial++ {
		q := []float64{rng.Float64() * 20, rng.Float64() * 15}
		_, sq := eq.EvalEps(q, 0.01)
		_, sm := em.EvalEps(q, 0.01)
		quadPoints += sq.PointsScanned
		mmPoints += sm.PointsScanned
	}
	if quadPoints >= mmPoints {
		t.Errorf("QUAD scanned %d points, MinMax %d — tighter bounds should scan fewer", quadPoints, mmPoints)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	pts := clusteredPoints(rng, 500)
	e := buildEngine(t, pts, kernel.Gaussian, 0.5, bounds.Quadratic)
	_, st := e.EvalEps([]float64{5, 5}, 0.01)
	if st.Iterations <= 0 || st.NodesEvaluated <= 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
	var total Stats
	total.Add(st)
	total.Add(st)
	if total.Iterations != 2*st.Iterations || total.PointsScanned != 2*st.PointsScanned {
		t.Errorf("Stats.Add wrong: %+v vs %+v", total, st)
	}
}

func TestBoundTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	pts := clusteredPoints(rng, 1000)
	e := buildEngine(t, pts, kernel.Gaussian, 0.5, bounds.Quadratic)
	q := []float64{5, 5}
	trace := e.BoundTrace(q, 0.01)
	if len(trace) < 2 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	exact := e.Exact(q)
	prevGap := math.Inf(1)
	for i, tp := range trace {
		if tp.LB > exact+1e-9*(1+exact) || tp.UB < exact-1e-9*(1+exact) {
			t.Fatalf("trace[%d] bounds [%g, %g] do not sandwich exact %g", i, tp.LB, tp.UB, exact)
		}
		gap := tp.UB - tp.LB
		// The gap is not strictly monotone per step, but must shrink overall.
		if i == len(trace)-1 && gap > prevGap && gap > 0.02*exact {
			t.Errorf("final gap %g did not shrink", gap)
		}
		if i == 0 {
			prevGap = gap
		}
	}
	last := trace[len(trace)-1]
	if last.UB > (1+0.01)*last.LB+1e-15 {
		t.Errorf("trace did not reach εKDV termination: [%g, %g]", last.LB, last.UB)
	}
}

// TestBoundTraceQuadStopsEarlier reproduces Figure 18's claim: QUAD
// terminates in fewer iterations than KARL on the same query.
func TestBoundTraceQuadStopsEarlier(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pts := clusteredPoints(rng, 4000)
	eq := buildEngine(t, pts.Clone(), kernel.Gaussian, 0.5, bounds.Quadratic)
	ek := buildEngine(t, pts.Clone(), kernel.Gaussian, 0.5, bounds.Linear)
	var quadIters, karlIters int
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 20, rng.Float64() * 15}
		quadIters += len(eq.BoundTrace(q, 0.01))
		karlIters += len(ek.BoundTrace(q, 0.01))
	}
	if quadIters >= karlIters {
		t.Errorf("QUAD used %d total iterations, KARL %d — expected QUAD to stop earlier", quadIters, karlIters)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	pts := clusteredPoints(rng, 500)
	e := buildEngine(t, pts, kernel.Gaussian, 0.5, bounds.Quadratic)
	c := e.Clone()
	if c.Tree != e.Tree {
		t.Error("Clone should share the tree")
	}
	if c.Ev == e.Ev {
		t.Error("Clone must not share the evaluator")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.EvalEps([]float64{float64(i % 20), 5}, 0.01)
		}
	}()
	for i := 0; i < 200; i++ {
		e.EvalEps([]float64{5, float64(i % 15)}, 0.01)
	}
	<-done
}

// TestEpsGuaranteeDeepTail is a regression test for incremental-drift
// corruption: at query points where F is 10+ orders of magnitude below the
// root upper bound, the pending bound sums' absolute rounding drift used to
// flip ub negative and terminate refinement at half the true density. The
// engine must stay within ε even at these magnitudes.
func TestEpsGuaranteeDeepTail(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := clusteredPoints(rng, 5000)
	for _, m := range []bounds.Method{bounds.MinMax, bounds.Linear, bounds.Quadratic} {
		e := buildEngine(t, pts.Clone(), kernel.Gaussian, 0.5, m)
		w := 1 / float64(pts.Len())
		for _, off := range []float64{8, 10, 12, 15, 20} {
			q := []float64{15 + off, 10 + off} // progressively deeper tail
			exact := bounds.ExactScan(e.Tree.Pts, nil, kernel.Gaussian, 0.5, w, q)
			if exact == 0 {
				continue
			}
			got, _ := e.EvalEps(q, 0.01)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Fatalf("%s tail offset %g: rel err %g (got %g, exact %g)", m, off, rel, got, exact)
			}
		}
	}
}

// TestSinglePointDataset exercises the degenerate single-node tree.
func TestSinglePointDataset(t *testing.T) {
	pts := geom.NewPoints([]float64{1, 1}, 2)
	e := buildEngine(t, pts, kernel.Gaussian, 1, bounds.Quadratic)
	got, _ := e.EvalEps([]float64{1, 1}, 0.01)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("density at the point = %g, want 1", got)
	}
	got, _ = e.EvalEps([]float64{100, 100}, 0.01)
	if got > 1e-100 {
		t.Errorf("density far away = %g, want ≈ 0", got)
	}
}
