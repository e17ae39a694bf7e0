package classify

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

// twoBlobs builds two Gaussian classes centered apart.
func twoBlobs(rng *rand.Rand, n int, sep float64) map[string]geom.Points {
	mk := func(cx, cy float64, m int) geom.Points {
		coords := make([]float64, 0, m*2)
		for i := 0; i < m; i++ {
			coords = append(coords, cx+rng.NormFloat64(), cy+rng.NormFloat64())
		}
		return geom.NewPoints(coords, 2)
	}
	return map[string]geom.Points{
		"a": mk(0, 0, n),
		"b": mk(sep, 0, n),
	}
}

func defaultCfg() Config {
	return Config{Kernel: kernel.Gaussian, Gamma: 0.5, Method: bounds.Quadratic}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	classes := twoBlobs(rng, 100, 6)
	if _, err := New(map[string]geom.Points{"solo": classes["a"]}, defaultCfg()); err == nil {
		t.Error("single class accepted")
	}
	bad := defaultCfg()
	bad.Gamma = 0
	if _, err := New(twoBlobs(rng, 100, 6), bad); err == nil {
		t.Error("zero gamma accepted")
	}
	mixed := map[string]geom.Points{
		"a": geom.NewPoints([]float64{0, 0}, 2),
		"b": geom.NewPoints([]float64{1, 2, 3}, 3),
	}
	if _, err := New(mixed, defaultCfg()); err == nil {
		t.Error("mixed dimensions accepted")
	}
	empty := map[string]geom.Points{
		"a": geom.NewPoints([]float64{0, 0}, 2),
		"b": {Dim: 2},
	}
	if _, err := New(empty, defaultCfg()); err == nil {
		t.Error("empty class accepted")
	}
}

func TestLabelsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	classes := map[string]geom.Points{
		"zeta":  twoBlobs(rng, 50, 6)["a"],
		"alpha": twoBlobs(rng, 50, 6)["b"],
		"mid":   twoBlobs(rng, 50, 6)["a"],
	}
	c, err := New(classes, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := c.Labels()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels() = %v, want %v", got, want)
		}
	}
	if c.Dim() != 2 {
		t.Errorf("Dim = %d", c.Dim())
	}
}

// TestClassifyMatchesExactArgmax: the raced decision must agree with the
// brute-force argmax of prior-scaled densities away from the decision
// boundary.
func TestClassifyMatchesExactArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	classes := twoBlobs(rng, 800, 6)
	for _, m := range []bounds.Method{bounds.MinMax, bounds.Quadratic} {
		cfg := defaultCfg()
		cfg.Method = m
		cl := map[string]geom.Points{"a": classes["a"].Clone(), "b": classes["b"].Clone()}
		c, err := New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			q := []float64{rng.Float64()*10 - 2, rng.NormFloat64() * 2}
			dens, err := c.Densities(q, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			da, db := dens["a"], dens["b"]
			if math.Abs(da-db) < 1e-6*(da+db) {
				continue // too close to the boundary to demand agreement
			}
			want := "a"
			if db > da {
				want = "b"
			}
			res, err := c.Classify(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Label != want {
				t.Fatalf("%s: Classify(%v) = %s, densities a=%g b=%g", m, q, res.Label, da, db)
			}
			if res.Margin < 0 {
				t.Fatalf("negative margin %g", res.Margin)
			}
		}
	}
}

// TestClassifyPrunes: the race must decide well before refining either class
// to exactness on clearly separated queries.
func TestClassifyPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	classes := twoBlobs(rng, 4000, 10)
	c, err := New(classes, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Classify([]float64{0, 0}) // deep inside class a
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "a" {
		t.Fatalf("label = %s", res.Label)
	}
	if res.Stats.PointsScanned > 4000 {
		t.Errorf("race scanned %d points — no pruning happened", res.Stats.PointsScanned)
	}
}

func TestClassifyDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	c, err := New(twoBlobs(rng, 100, 6), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Classify([]float64{1}); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, err := c.Densities([]float64{1}, 0.01); err == nil {
		t.Error("wrong-dim Densities accepted")
	}
}

func TestClassifyExactTie(t *testing.T) {
	// Two identical classes: every query is an exact tie and must resolve
	// to the lexicographically smaller label.
	pts := geom.NewPoints([]float64{0, 0, 1, 1, 2, 2, 0, 1, 1, 0, 2, 1}, 2)
	classes := map[string]geom.Points{"beta": pts.Clone(), "alpha": pts.Clone()}
	c, err := New(classes, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Classify([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "alpha" {
		t.Errorf("tie resolved to %s, want alpha", res.Label)
	}
	if res.Margin != 0 {
		t.Errorf("tie margin = %g", res.Margin)
	}
}

func TestClassifyPriors(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	// Class b has 9x the points: at the exact midpoint the bigger prior
	// must win.
	mk := func(cx float64, m int) geom.Points {
		coords := make([]float64, 0, m*2)
		for i := 0; i < m; i++ {
			coords = append(coords, cx+rng.NormFloat64(), rng.NormFloat64())
		}
		return geom.NewPoints(coords, 2)
	}
	classes := map[string]geom.Points{"a": mk(0, 200), "b": mk(6, 1800)}
	c, err := New(classes, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Classify([]float64{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "b" {
		t.Errorf("midpoint classified %s; the 9x prior should win", res.Label)
	}
}

func TestClassifyConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	c, err := New(twoBlobs(rng, 500, 6), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := []float64{r.Float64() * 8, r.NormFloat64()}
				if _, err := c.Classify(q); err != nil {
					t.Errorf("concurrent Classify: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestThreeClasses exercises the race beyond the binary case.
func TestThreeClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	mk := func(cx, cy float64) geom.Points {
		coords := make([]float64, 0, 600)
		for i := 0; i < 300; i++ {
			coords = append(coords, cx+rng.NormFloat64()*0.8, cy+rng.NormFloat64()*0.8)
		}
		return geom.NewPoints(coords, 2)
	}
	classes := map[string]geom.Points{"left": mk(0, 0), "right": mk(8, 0), "top": mk(4, 7)}
	c, err := New(classes, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]float64{
		"left":  {0, 0},
		"right": {8, 0},
		"top":   {4, 7},
	}
	for want, q := range cases {
		res, err := c.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Label != want {
			t.Errorf("Classify(%v) = %s, want %s", q, res.Label, want)
		}
	}
}

// TestClassifyTailMatchesOracle races two hep classes at queries 6–14 units
// from the origin, where both densities are deep kernel tails, far below
// the root bounds each race starts from. Every label must be the Kahan
// oracle's argmax: a decision drawn from pending sums whose rounding drift
// exceeds the densities themselves picks the wrong class.
func TestClassifyTailMatchesOracle(t *testing.T) {
	const gamma, n, queries = 1.7, 20000, 400
	seeds := int64(10)
	if raceEnabled {
		seeds = 1
	}
	wrong, total := 0, 0
	for seed := int64(500); seed < 500+seeds; seed++ {
		classes := map[string]geom.Points{}
		var oracles []*oracle.Oracle
		for i, label := range []string{"a", "b"} {
			pts, err := dataset.Generate2D("hep", n, seed+int64(i)*1000)
			if err != nil {
				t.Fatal(err)
			}
			o, err := oracle.New(pts, nil, kernel.Gaussian, gamma, 0.5/n)
			if err != nil {
				t.Fatal(err)
			}
			classes[label] = pts.Clone()
			oracles = append(oracles, o)
		}
		c, err := New(classes, Config{Kernel: kernel.Gaussian, Gamma: gamma, Method: bounds.Quadratic})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < queries; i++ {
			r, theta := 6+8*rng.Float64(), 2*math.Pi*rng.Float64()
			q := []float64{r * math.Cos(theta), r * math.Sin(theta)}
			fa, fb := oracles[0].Density(q), oracles[1].Density(q)
			want := "a"
			if fb > fa {
				want = "b"
			}
			res, err := c.Classify(q)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if res.Label != want {
				wrong++
				if wrong <= 5 {
					t.Errorf("seed %d, q=%v: labelled %s, oracle f_a=%g, f_b=%g", seed, q, res.Label, fa, fb)
				}
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d tail labels differ from the oracle's argmax", wrong, total)
	}
}
