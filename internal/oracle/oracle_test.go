package oracle

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// TestSumCompensates pins the property that motivates the package: summing
// one large term plus many tiny terms that individually vanish against it.
// Naive accumulation loses the tiny terms entirely; the compensated sum
// keeps them to within one ulp of the true total.
func TestSumCompensates(t *testing.T) {
	const n = 1_000_000
	const tiny = 1e-16
	var kahan Sum
	var naive float64
	kahan.Add(1)
	naive += 1
	for i := 0; i < n; i++ {
		kahan.Add(tiny)
		naive += tiny
	}
	want := 1 + float64(n)*tiny
	if naive == want {
		t.Fatalf("naive summation unexpectedly exact; test term too large")
	}
	if got := kahan.Value(); math.Abs(got-want) > 1e-15*want {
		t.Errorf("compensated sum = %.17g, want %.17g", got, want)
	}
}

func TestSumMatchesSortedAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	terms := make([]float64, 5000)
	for i := range terms {
		terms[i] = math.Exp(-20 * rng.Float64() * rng.Float64())
	}
	var s Sum
	for _, v := range terms {
		s.Add(v)
	}
	// Reference: extended-precision style pairwise reduction.
	ref := pairwiseSum(terms)
	if got := s.Value(); math.Abs(got-ref) > 1e-12*ref {
		t.Errorf("Sum = %.17g, pairwise = %.17g", got, ref)
	}
}

func pairwiseSum(v []float64) float64 {
	if len(v) == 1 {
		return v[0]
	}
	m := len(v) / 2
	return pairwiseSum(v[:m]) + pairwiseSum(v[m:])
}

// TestDensityMatchesExactScan: on well-conditioned data the oracle and the
// production ExactScan agree to float tolerance for every kernel.
func TestDensityMatchesExactScan(t *testing.T) {
	pts := dataset.Crime(2000, 3)
	gamma, weight := 0.8, 1.0/2000
	queries := [][]float64{{50, 50}, {0, 0}, {120, -10}, {33.3, 66.6}}
	for _, k := range kernel.All() {
		o, err := New(pts, nil, k, gamma, weight)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want := bounds.ExactScan(pts, nil, k, gamma, weight, q)
			got := o.Density(q)
			tol := 1e-12 * (1 + math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Errorf("%s at %v: oracle %.17g, scan %.17g", k, q, got, want)
			}
		}
	}
}

func TestDensityWeighted(t *testing.T) {
	pts := geom.NewPoints([]float64{0, 0, 1, 0, 0, 1}, 2)
	ws := []float64{1, 2, 3}
	o, err := New(pts, ws, kernel.Gaussian, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0, 0}
	want := 0.5 * (1*math.Exp(0) + 2*math.Exp(-1) + 3*math.Exp(-1))
	if got := o.Density(q); math.Abs(got-want) > 1e-15 {
		t.Errorf("weighted density = %.17g, want %.17g", got, want)
	}
}

// TestNodeDensityPartition: the root's children partition the point set, so
// their exact partial sums must add to the root's (and to Density over the
// tree's point buffer).
func TestNodeDensityPartition(t *testing.T) {
	pts := dataset.ElNino(1500, 11)
	tree, err := kdtree.Build(pts, kdtree.Options{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(tree.Pts, nil, kernel.Gaussian, 0.5, 1.0/1500)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{25, 12}
	root := o.NodeDensity(tree, 0, q)
	if whole := o.Density(q); math.Abs(root-whole) > 1e-13*(1+whole) {
		t.Errorf("root partial %.17g != full density %.17g", root, whole)
	}
	var leafSum Sum
	tree.Walk(func(id int32) bool {
		if tree.IsLeaf(id) {
			leafSum.Add(o.NodeDensity(tree, id, q))
		}
		return true
	})
	if got := leafSum.Value(); math.Abs(got-root) > 1e-12*(1+root) {
		t.Errorf("leaf partials sum to %.17g, root %.17g", got, root)
	}
}

func TestRasterAndHotMask(t *testing.T) {
	pts := dataset.Home(1000, 5)
	o, err := New(pts, nil, kernel.Gaussian, 0.7, 1.0/1000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.ForDataset(grid.Resolution{W: 16, H: 12}, pts, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	vals := o.Raster(g)
	if len(vals) != 16*12 {
		t.Fatalf("raster has %d pixels, want %d", len(vals), 16*12)
	}
	q := make([]float64, 2)
	g.Query(7, 5, q)
	if want := o.Density(q); vals[g.Index(7, 5)] != want {
		t.Errorf("raster pixel %.17g != direct density %.17g", vals[g.Index(7, 5)], want)
	}
	mu, sigma := MuSigma(vals)
	if sigma <= 0 {
		t.Fatalf("degenerate raster: mu=%g sigma=%g", mu, sigma)
	}
	hot := HotMask(vals, mu)
	var n int
	for i, h := range hot {
		if h != (vals[i] >= mu) {
			t.Fatalf("pixel %d misclassified", i)
		}
		if h {
			n++
		}
	}
	if n == 0 || n == len(hot) {
		t.Errorf("τ=μ mask is degenerate (%d/%d hot)", n, len(hot))
	}
}

func TestNewValidates(t *testing.T) {
	pts := geom.NewPoints([]float64{0, 0}, 2)
	if _, err := New(geom.Points{Dim: 2}, nil, kernel.Gaussian, 1, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := New(pts, nil, kernel.Kernel(99), 1, 1); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, err := New(pts, nil, kernel.Gaussian, 0, 1); err == nil {
		t.Error("zero gamma accepted")
	}
	if _, err := New(pts, nil, kernel.Gaussian, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := New(pts, []float64{1, 2}, kernel.Gaussian, 1, 1); err == nil {
		t.Error("mismatched weights accepted")
	}
}
