package stats

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kernel"
)

func gaussianCloud(rng *rand.Rand, n int, sigma float64) geom.Points {
	coords := make([]float64, 0, n*2)
	for i := 0; i < n; i++ {
		coords = append(coords, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return geom.NewPoints(coords, 2)
}

func TestScottsRuleScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	small := ScottsRule(gaussianCloud(rng, 1000, 1), kernel.Gaussian)
	big := ScottsRule(gaussianCloud(rng, 100000, 1), kernel.Gaussian)
	// h shrinks with n (n^{-1/6} in 2-d), so γ grows.
	if big.H >= small.H {
		t.Errorf("bandwidth did not shrink with n: %g vs %g", big.H, small.H)
	}
	if big.Gamma <= small.Gamma {
		t.Errorf("gamma did not grow with n: %g vs %g", big.Gamma, small.Gamma)
	}
	if small.Weight != 1.0/1000 || big.Weight != 1.0/100000 {
		t.Errorf("weights: %g, %g", small.Weight, big.Weight)
	}
}

func TestScottsRuleSigmaScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	narrow := ScottsRule(gaussianCloud(rng, 10000, 1), kernel.Gaussian)
	wide := ScottsRule(gaussianCloud(rng, 10000, 10), kernel.Gaussian)
	if wide.H <= narrow.H {
		t.Errorf("bandwidth should scale with spread: %g vs %g", wide.H, narrow.H)
	}
}

func TestScottsRuleKernelConvention(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	pts := gaussianCloud(rng, 5000, 2)
	g := ScottsRule(pts, kernel.Gaussian)
	tr := ScottsRule(pts, kernel.Triangular)
	if math.Abs(g.Gamma-1/(2*g.H*g.H)) > 1e-12 {
		t.Errorf("Gaussian γ = %g, want 1/(2h²) = %g", g.Gamma, 1/(2*g.H*g.H))
	}
	if math.Abs(tr.Gamma-1/tr.H) > 1e-12 {
		t.Errorf("triangular γ = %g, want 1/h = %g", tr.Gamma, 1/tr.H)
	}
}

func TestScottsRuleDegenerate(t *testing.T) {
	// All-identical points: σ = 0 must not produce γ = Inf/NaN.
	pts := geom.NewPoints([]float64{1, 1, 1, 1, 1, 1}, 2)
	b := ScottsRule(pts, kernel.Gaussian)
	if math.IsInf(b.Gamma, 0) || math.IsNaN(b.Gamma) || b.Gamma <= 0 {
		t.Errorf("degenerate γ = %g", b.Gamma)
	}
	empty := ScottsRule(geom.Points{Dim: 2}, kernel.Gaussian)
	if empty.Gamma <= 0 || empty.Weight <= 0 {
		t.Errorf("empty-set bandwidth: %+v", empty)
	}
}

func TestMuSigma(t *testing.T) {
	mu, sigma := MuSigma([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mu != 5 {
		t.Errorf("μ = %g, want 5", mu)
	}
	if sigma != 2 {
		t.Errorf("σ = %g, want 2", sigma)
	}
	mu, sigma = MuSigma(nil)
	if mu != 0 || sigma != 0 {
		t.Errorf("empty MuSigma = %g, %g", mu, sigma)
	}
}

func TestThresholds(t *testing.T) {
	got := Thresholds(10, 2, []float64{-0.2, 0, 0.3})
	want := []float64{9.6, 10, 10.6}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Thresholds[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestAvgRelativeError(t *testing.T) {
	got, err := AvgRelativeError([]float64{1.1, 2, 0}, []float64{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := (0.1 + 0 + 0) / 3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgRelativeError = %g, want %g", got, want)
	}
	// Zero exact with nonzero approx counts as error 1.
	got, _ = AvgRelativeError([]float64{0.5}, []float64{0})
	if got != 1 {
		t.Errorf("zero-exact convention = %g, want 1", got)
	}
	if _, err := AvgRelativeError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AvgRelativeError(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMaxRelativeError(t *testing.T) {
	got, err := MaxRelativeError([]float64{1.1, 2.4}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2) > 1e-9 {
		t.Errorf("MaxRelativeError = %g, want 0.2", got)
	}
	if _, err := MaxRelativeError([]float64{1}, []float64{}); err == nil {
		t.Error("mismatch accepted")
	}
}

func TestDisagreement(t *testing.T) {
	got, err := Disagreement([]bool{true, false, true, true}, []bool{true, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("Disagreement = %g, want 0.5", got)
	}
	if _, err := Disagreement([]bool{true}, []bool{}); err == nil {
		t.Error("mismatch accepted")
	}
	if _, err := Disagreement(nil, nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestSilvermanRule(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pts := gaussianCloud(rng, 5000, 2) // 2-d: factor is exactly 1
	sc := ScottsRule(pts, kernel.Gaussian)
	si := SilvermanRule(pts, kernel.Gaussian)
	if math.Abs(sc.H-si.H) > 1e-12*sc.H {
		t.Errorf("2-d Silverman h %g != Scott h %g", si.H, sc.H)
	}
	// 1-d: Silverman h = Scott h × (4/3)^{1/5}.
	one := geom.NewPoints(pts.Coords[:4000], 1)
	sc1 := ScottsRule(one, kernel.Gaussian)
	si1 := SilvermanRule(one, kernel.Gaussian)
	want := sc1.H * math.Pow(4.0/3.0, 0.2)
	if math.Abs(si1.H-want) > 1e-12*want {
		t.Errorf("1-d Silverman h %g, want %g", si1.H, want)
	}
}

func TestFlooredAvgRelativeError(t *testing.T) {
	// Without a floor, the tiny-denominator pixel dominates.
	approx := []float64{1.1, 1e-9}
	exact := []float64{1.0, 1e-12}
	strict, err := AvgRelativeError(approx, exact)
	if err != nil {
		t.Fatal(err)
	}
	if strict < 100 {
		t.Fatalf("strict error %g should blow up on the tail pixel", strict)
	}
	floored, err := FlooredAvgRelativeError(approx, exact, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if floored > 0.06 {
		t.Errorf("floored error %g should stay moderate", floored)
	}
	// floor = 0 reduces to the strict metric.
	same, err := FlooredAvgRelativeError(approx, exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(same-strict) > 1e-9*strict {
		t.Errorf("floor=0: %g vs strict %g", same, strict)
	}
	// Zero-exact convention with zero floor.
	v, err := FlooredAvgRelativeError([]float64{0.5}, []float64{0}, 0)
	if err != nil || v != 1 {
		t.Errorf("zero-exact convention: %g, %v", v, err)
	}
	if _, err := FlooredAvgRelativeError([]float64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FlooredAvgRelativeError(nil, nil, 0); err == nil {
		t.Error("empty input accepted")
	}
}

// TestPowMatchesMathPow: pow is math.Pow's fractional-exponent path with
// kernel.Exp1 in place of math.Exp, for the exponents the bandwidth rules
// use. Exp1 and an FMA math.Exp may differ by one ulp, which the reciprocal
// of a negative exponent can round to two, so the results agree within two
// ulps on every host (and exactly on amd64 hosts without FMA).
func TestPowMatchesMathPow(t *testing.T) {
	for d := 1; d <= 4; d++ {
		y := 1 / float64(d+4)
		check := func(x, y float64) {
			got, want := pow(x, y), math.Pow(x, y)
			ulps := int64(math.Float64bits(got)) - int64(math.Float64bits(want))
			if ulps < -2 || ulps > 2 {
				t.Fatalf("pow(%g, %g) = %.17g, math.Pow = %.17g (%d ulps apart)", x, y, got, want, ulps)
			}
		}
		check(4/float64(d+2), y)
		for n := 1; n <= 5000; n++ {
			check(float64(n), -y)
		}
	}
}
