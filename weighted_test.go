package quad

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWithPointWeightsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	cloud := testCloud(rng, 50)
	if _, err := NewFromPoints(cloud, WithPointWeights([]float64{1, 2})); err == nil {
		t.Error("mismatched weight count accepted")
	}
	bad := make([]float64, 50)
	bad[3] = -1
	if _, err := NewFromPoints(cloud, WithPointWeights(bad)); err == nil {
		t.Error("negative weight accepted")
	}
	zeros := make([]float64, 50)
	if _, err := NewFromPoints(cloud, WithPointWeights(zeros)); err == nil {
		t.Error("all-zero weights accepted")
	}
	// Non-finite weights must be rejected by name, not left to poison the
	// raster (NaN) or surface as a bandwidth error (+Inf makes 1/Σw zero).
	for _, c := range []struct {
		name string
		at   map[int]float64
		want string
	}{
		{"NaN weight", map[int]float64{3: math.NaN()}, "index 3"},
		{"+Inf weight", map[int]float64{3: math.Inf(1)}, "index 3"},
		{"overflowing sum", map[int]float64{3: math.MaxFloat64, 4: math.MaxFloat64}, "sum"},
	} {
		ws := make([]float64, 50)
		for i := range ws {
			ws[i] = 1
		}
		for i, w := range c.at {
			ws[i] = w
		}
		_, err := NewFromPoints(cloud, WithPointWeights(ws))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one naming %q", c.name, err, c.want)
		}
	}
	ws := make([]float64, 50)
	for i := range ws {
		ws[i] = 1
	}
	if _, err := NewFromPoints(cloud, WithPointWeights(ws), WithMethod(MethodZOrder)); err == nil {
		t.Error("Z-order with point weights accepted")
	}
}

func TestWeightedEstimateMatchesWeightedDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	cloud := testCloud(rng, 1000)
	ws := make([]float64, len(cloud))
	for i := range ws {
		ws[i] = rng.Float64() * 4
	}
	k, err := NewFromPoints(cloud, WithPointWeights(ws))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 10, rng.Float64() * 6}
		exact, err := k.Density(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Estimate(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if exact > 0 && math.Abs(got-exact)/exact > 0.01 {
			t.Fatalf("weighted estimate rel err %g", math.Abs(got-exact)/exact)
		}
	}
}

// TestWeightedDefaultNormalization: the automatic scalar weight with point
// weights is 1/Σw, so densities stay O(1)-scaled like the uniform case.
func TestWeightedDefaultNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	cloud := testCloud(rng, 400)
	ws := make([]float64, len(cloud))
	for i := range ws {
		ws[i] = 2.5
	}
	kw, err := NewFromPoints(cloud, WithPointWeights(ws))
	if err != nil {
		t.Fatal(err)
	}
	ku, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	// Constant weights with 1/Σw normalization reduce exactly to the
	// uniform 1/n case.
	q := []float64{4, 4}
	dw, _ := kw.Density(q)
	du, _ := ku.Density(q)
	if math.Abs(dw-du) > 1e-12*(1+du) {
		t.Errorf("constant-weight density %g != uniform density %g", dw, du)
	}
}

// TestWeightedRender: the weighted density map must emphasize the
// high-weight cluster.
func TestWeightedRender(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	// Two clusters, one with 10x point weights.
	var cloud [][]float64
	var ws []float64
	for i := 0; i < 600; i++ {
		if i%2 == 0 {
			cloud = append(cloud, []float64{1 + rng.NormFloat64()*0.3, 1 + rng.NormFloat64()*0.3})
			ws = append(ws, 10)
		} else {
			cloud = append(cloud, []float64{5 + rng.NormFloat64()*0.3, 5 + rng.NormFloat64()*0.3})
			ws = append(ws, 1)
		}
	}
	k, err := NewFromPoints(cloud, WithPointWeights(ws))
	if err != nil {
		t.Fatal(err)
	}
	heavy, _ := k.Density([]float64{1, 1})
	light, _ := k.Density([]float64{5, 5})
	if heavy < 5*light {
		t.Errorf("weighted cluster density %g not dominating unweighted %g", heavy, light)
	}
	dm, err := k.RenderEps(Resolution{W: 24, H: 24}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := minMax(dm.Values); hi <= 0 {
		t.Error("weighted render produced no positive densities")
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

func TestRenderEpsInWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	cloud := testCloud(rng, 600)
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	res := Resolution{W: 16, H: 16}
	win := Window{MinX: -0.5, MinY: -0.5, MaxX: 1.5, MaxY: 1.5}
	r, err := k.Render(context.Background(), Request{Res: res, Window: win, Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dm := r.Density
	if dm.WindowMin != [2]float64{-0.5, -0.5} || dm.WindowMax != [2]float64{1.5, 1.5} {
		t.Errorf("window not honored: %v %v", dm.WindowMin, dm.WindowMax)
	}
	// Zoomed window over the first cluster must agree with direct queries.
	q := []float64{win.MinX + (0.5+8)/16*(win.MaxX-win.MinX), win.MinY + (0.5+8)/16*(win.MaxY-win.MinY)}
	exact, _ := k.Density(q)
	if exact > 0 && math.Abs(dm.At(8, 8)-exact)/exact > 0.01 {
		t.Errorf("windowed pixel value %g, exact %g", dm.At(8, 8), exact)
	}
	if _, err := k.Render(context.Background(), Request{Res: res, Window: Window{MinX: 1, MaxX: 1, MinY: 0, MaxY: 2}, Eps: 0.01}); err == nil {
		t.Error("degenerate window accepted")
	}
	hr, err := k.Render(context.Background(), Request{Variant: TauKDV, Res: res, Window: win, Tau: exact})
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Hot.Hot) != 256 {
		t.Errorf("windowed tau raster %d", len(hr.Hot.Hot))
	}
}

func TestWithTightNodeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	cloud := testCloud(rng, 2000)
	plain, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewFromPoints(cloud, WithTightNodeBounds(true))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 10, rng.Float64() * 6}
		a, _ := plain.Estimate(q, 0.01)
		b, _ := tight.Estimate(q, 0.01)
		exact, _ := plain.Density(q)
		if exact > 0 {
			if math.Abs(a-exact)/exact > 0.01 || math.Abs(b-exact)/exact > 0.01 {
				t.Fatalf("ball-tightened estimate broke guarantee: %g %g vs %g", a, b, exact)
			}
		}
	}
	// Tightened root interval must be no wider.
	q := []float64{12, -3}
	lbP, ubP, _ := plain.DensityBounds(q)
	lbT, ubT, _ := tight.DensityBounds(q)
	if ubT-lbT > (ubP-lbP)*(1+1e-12) {
		t.Errorf("ball tightening widened the root gap: [%g,%g] vs [%g,%g]", lbT, ubT, lbP, ubP)
	}
}

func TestWithBandwidthRule(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	// Silverman's factor (4/(d+2))^{1/(d+4)} is exactly 1 in 2-d; use 1-d
	// (factor > 1) and 3-d (factor < 1) data to observe the difference.
	cloudDim := func(dim int) [][]float64 {
		pts := make([][]float64, 500)
		for i := range pts {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			pts[i] = p
		}
		return pts
	}
	mk := func(pts [][]float64, rule BandwidthRule) *KDV {
		k, err := NewFromPoints(pts, WithBandwidthRule(rule))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	one := cloudDim(1)
	if s, sc := mk(one, Silverman).Bandwidth(), mk(one, Scott).Bandwidth(); s <= sc*1.01 {
		t.Errorf("1-d: Silverman h %g should exceed Scott h %g", s, sc)
	}
	three := cloudDim(3)
	if s, sc := mk(three, Silverman).Bandwidth(), mk(three, Scott).Bandwidth(); s >= sc {
		t.Errorf("3-d: Silverman h %g should be below Scott h %g", s, sc)
	}
	// 2-d: the rules coincide.
	two := testCloud(rng, 400)
	a, _ := NewFromPoints(two, WithBandwidthRule(Scott))
	b, _ := NewFromPoints(two, WithBandwidthRule(Silverman))
	if math.Abs(a.Bandwidth()-b.Bandwidth()) > 1e-12*a.Bandwidth() {
		t.Errorf("2-d: rules should coincide: %g vs %g", a.Bandwidth(), b.Bandwidth())
	}
}
