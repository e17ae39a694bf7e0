package bounds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// fixture bundles a built tree with brute-force helpers.
type fixture struct {
	tree *kdtree.Tree
	pts  geom.Points
}

func newFixture(t *testing.T, rng *rand.Rand, n, dim int, clustered bool) *fixture {
	t.Helper()
	coords := make([]float64, 0, n*dim)
	for i := 0; i < n; i++ {
		if clustered && i%3 != 0 {
			base := float64(i % 5)
			for j := 0; j < dim; j++ {
				coords = append(coords, base+rng.NormFloat64()*0.2)
			}
		} else {
			for j := 0; j < dim; j++ {
				coords = append(coords, rng.NormFloat64()*3)
			}
		}
	}
	tr, err := kdtree.Build(geom.NewPoints(coords, dim), kdtree.Options{LeafSize: 8, Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tree: tr, pts: tr.Pts}
}

func (f *fixture) exactNode(id int32, kern kernel.Kernel, gamma, w float64, q []float64) float64 {
	var sum float64
	for i := int(f.tree.Start[id]); i < int(f.tree.End[id]); i++ {
		sum += kern.Eval(gamma, geom.Dist2(q, f.pts.At(i)))
	}
	return w * sum
}

func (f *fixture) randQuery(rng *rand.Rand, dim int) []float64 {
	q := make([]float64, dim)
	for i := range q {
		q[i] = rng.NormFloat64() * 4
	}
	return q
}

// allMethods returns the methods applicable to a kernel.
func allMethods(k kernel.Kernel) []Method {
	ms := []Method{MinMax, Quadratic}
	if k.HasLinearBounds() {
		ms = append(ms, Linear)
	}
	return ms
}

// TestBoundsSandwichExact is the core correctness property: for every
// kernel, method, node and query, LB ≤ F ≤ UB.
func TestBoundsSandwichExact(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, kern := range kernel.All() {
		for _, dim := range []int{1, 2, 3} {
			f := newFixture(t, rng, 400, dim, true)
			for _, gamma := range []float64{0.05, 0.5, 3} {
				for _, method := range allMethods(kern) {
					ev, err := NewEvaluator(kern, gamma, 1.0/400, method, dim)
					if err != nil {
						t.Fatal(err)
					}
					for trial := 0; trial < 8; trial++ {
						q := f.randQuery(rng, dim)
						f.tree.Walk(func(id int32) bool {
							lb, ub := ev.FlatBounds(f.tree, id, q)
							exact := f.exactNode(id, kern, gamma, 1.0/400, q)
							tol := 1e-9 * (1 + math.Abs(exact))
							if lb > exact+tol {
								t.Fatalf("%s/%s dim=%d γ=%g: LB %.12g > exact %.12g (node size %d)",
									kern, method, dim, gamma, lb, exact, f.tree.Size(id))
							}
							if ub < exact-tol {
								t.Fatalf("%s/%s dim=%d γ=%g: UB %.12g < exact %.12g (node size %d)",
									kern, method, dim, gamma, ub, exact, f.tree.Size(id))
							}
							if lb > ub+tol {
								t.Fatalf("%s/%s: LB %g > UB %g", kern, method, lb, ub)
							}
							return f.tree.Size(id) > 30
						})
					}
				}
			}
		}
	}
}

// TestTightnessOrderingGaussian verifies the paper's central tightness claim
// (Sections 4.2–4.3): on the Gaussian kernel,
// LB_MinMax ≤ LB_KARL ≤ LB_QUAD and UB_QUAD ≤ UB_KARL ≤ UB_MinMax.
func TestTightnessOrderingGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := newFixture(t, rng, 500, 2, true)
	const gamma, w = 0.8, 1.0 / 500
	mk := func(m Method) *Evaluator {
		ev, err := NewEvaluator(kernel.Gaussian, gamma, w, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	evMM, evL, evQ := mk(MinMax), mk(Linear), mk(Quadratic)
	const tol = 1e-9
	for trial := 0; trial < 30; trial++ {
		q := f.randQuery(rng, 2)
		f.tree.Walk(func(id int32) bool {
			lbM, ubM := evMM.FlatBounds(f.tree, id, q)
			lbL, ubL := evL.FlatBounds(f.tree, id, q)
			lbQ, ubQ := evQ.FlatBounds(f.tree, id, q)
			if lbL < lbM-tol*(1+lbM) {
				t.Fatalf("KARL lower %g looser than MinMax %g", lbL, lbM)
			}
			if lbQ < lbL-tol*(1+lbL) {
				t.Fatalf("QUAD lower %g looser than KARL %g", lbQ, lbL)
			}
			if ubL > ubM+tol*(1+ubM) {
				t.Fatalf("KARL upper %g looser than MinMax %g", ubL, ubM)
			}
			if ubQ > ubL+tol*(1+ubL) {
				t.Fatalf("QUAD upper %g looser than KARL %g", ubQ, ubL)
			}
			return f.tree.Size(id) > 30
		})
	}
}

// TestTightnessOrderingDistanceKernels verifies QUAD ⊆ MinMax for the
// Section 5 kernels (Lemmas 5–6 and the 9.6 analogues).
func TestTightnessOrderingDistanceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := newFixture(t, rng, 500, 2, true)
	const w = 1.0 / 500
	const tol = 1e-9
	for _, kern := range []kernel.Kernel{kernel.Triangular, kernel.Cosine, kernel.Exponential} {
		for _, gamma := range []float64{0.1, 0.4, 1.5} {
			evMM, err := NewEvaluator(kern, gamma, w, MinMax, 2)
			if err != nil {
				t.Fatal(err)
			}
			evQ, err := NewEvaluator(kern, gamma, w, Quadratic, 2)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				q := f.randQuery(rng, 2)
				f.tree.Walk(func(id int32) bool {
					lbM, ubM := evMM.FlatBounds(f.tree, id, q)
					lbQ, ubQ := evQ.FlatBounds(f.tree, id, q)
					if lbQ < lbM-tol*(1+lbM) {
						t.Fatalf("%s γ=%g: QUAD lower %g looser than MinMax %g", kern, gamma, lbQ, lbM)
					}
					if ubQ > ubM+tol*(1+ubM) {
						t.Fatalf("%s γ=%g: QUAD upper %g looser than MinMax %g", kern, gamma, ubQ, ubM)
					}
					return f.tree.Size(id) > 30
				})
			}
		}
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	cases := []struct {
		name   string
		kern   kernel.Kernel
		gamma  float64
		weight float64
		method Method
		dim    int
	}{
		{"invalid kernel", kernel.Kernel(99), 1, 1, MinMax, 2},
		{"zero gamma", kernel.Gaussian, 0, 1, MinMax, 2},
		{"negative weight", kernel.Gaussian, 1, -1, MinMax, 2},
		{"linear non-gaussian", kernel.Triangular, 1, 1, Linear, 2},
		{"zero dim", kernel.Gaussian, 1, 1, MinMax, 0},
	}
	for _, c := range cases {
		if _, err := NewEvaluator(c.kern, c.gamma, c.weight, c.method, c.dim); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNeedsGram(t *testing.T) {
	mk := func(k kernel.Kernel, m Method) bool {
		ev, err := NewEvaluator(k, 1, 1, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ev.NeedsGram()
	}
	if !mk(kernel.Gaussian, Quadratic) {
		t.Error("Gaussian quadratic must need Gram")
	}
	if !mk(kernel.Quartic, Quadratic) {
		t.Error("Quartic quadratic must need Gram")
	}
	if mk(kernel.Gaussian, Linear) || mk(kernel.Gaussian, MinMax) || mk(kernel.Triangular, Quadratic) {
		t.Error("only Gaussian/Quartic quadratic bounds need Gram")
	}
}

func TestMethodStringParse(t *testing.T) {
	for _, m := range []Method{MinMax, Linear, Quadratic} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v failed: %v %v", m, got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("ParseMethod of unknown name succeeded")
	}
}

func TestExactScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := geom.NewPoints([]float64{0, 0, 1, 1, 2, 0, -1, 3}, 2)
	q := []float64{0.5, 0.5}
	for _, kern := range kernel.All() {
		gamma := 0.3 + rng.Float64()
		var want float64
		for i := 0; i < pts.Len(); i++ {
			want += kern.Eval(gamma, geom.Dist2(q, pts.At(i)))
		}
		want *= 0.25
		got := ExactScan(pts, nil, kern, gamma, 0.25, q)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: ExactScan = %g, want %g", kern, got, want)
		}
	}
}

func TestExactNodeMatchesExactScanOnRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	f := newFixture(t, rng, 300, 2, false)
	ev, err := NewEvaluator(kernel.Gaussian, 0.7, 1.0/300, Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := f.randQuery(rng, 2)
	got := ev.FlatExactNode(f.tree, 0, q)
	want := ExactScan(f.pts, nil, kernel.Gaussian, 0.7, 1.0/300, q)
	if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
		t.Errorf("ExactNode(root) = %g, ExactScan = %g", got, want)
	}
}

func TestCloneIndependentScratch(t *testing.T) {
	ev, err := NewEvaluator(kernel.Gaussian, 1, 1, Quadratic, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := ev.Clone()
	if &c.scratch[0] == &ev.scratch[0] {
		t.Error("Clone shares scratch buffer")
	}
	if c.Kern != ev.Kern || c.Method != ev.Method {
		t.Error("Clone lost configuration")
	}
}

// TestBoundsQuickGaussian drives the sandwich property through testing/quick
// with randomized queries on a fixed tree.
func TestBoundsQuickGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := newFixture(t, rng, 300, 2, true)
	ev, err := NewEvaluator(kernel.Gaussian, 0.6, 1.0/300, Quadratic, 2)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(qa, qb float64) bool {
		q := []float64{math.Mod(qa, 12), math.Mod(qb, 12)}
		lb, ub := ev.FlatBounds(f.tree, 0, q)
		exact := f.exactNode(0, kernel.Gaussian, 0.6, 1.0/300, q)
		tol := 1e-9 * (1 + exact)
		return lb <= exact+tol && ub >= exact-tol
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestZeroSupportNodes: nodes entirely outside a finite-support kernel's
// radius must get lb = ub = 0 under quadratic bounds.
func TestZeroSupportNodes(t *testing.T) {
	pts := geom.NewPoints([]float64{100, 100, 101, 101, 100, 101, 102, 100, 101, 100, 102, 102}, 2)
	tr, err := kdtree.Build(pts, kdtree.Options{LeafSize: 2, Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0, 0}
	for _, kern := range []kernel.Kernel{kernel.Triangular, kernel.Cosine, kernel.Epanechnikov, kernel.Quartic} {
		ev, err := NewEvaluator(kern, 1, 1, Quadratic, 2)
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := ev.FlatBounds(tr, 0, q)
		if lb != 0 || ub != 0 {
			t.Errorf("%s: far node bounds [%g, %g], want [0, 0]", kern, lb, ub)
		}
	}
}
