package quad

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// testCloud builds a clustered 2-d dataset as [][]float64.
func testCloud(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		cx, cy := float64(i%3)*4, float64((i/3)%2)*4
		pts[i] = []float64{cx + rng.NormFloat64()*0.6, cy + rng.NormFloat64()*0.6}
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 2); err == nil {
		t.Error("empty buffer accepted")
	}
	if _, err := New([]float64{1, 2, 3}, 2); err == nil {
		t.Error("ragged buffer accepted")
	}
	if _, err := New([]float64{1, 2}, 0); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewFromPoints(nil); err == nil {
		t.Error("empty point slice accepted")
	}
	if _, err := NewFromPoints([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("mixed dims accepted")
	}
	if _, err := NewFromPoints([][]float64{{}}); err == nil {
		t.Error("zero-dim point accepted")
	}
}

func TestNewCopiesInput(t *testing.T) {
	coords := []float64{0, 0, 1, 1}
	k, err := New(coords, 2)
	if err != nil {
		t.Fatal(err)
	}
	coords[0] = 999
	v, err := k.Density([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.4 { // both points near origin → density ≈ high
		t.Errorf("mutating caller buffer changed KDV state (density %g)", v)
	}
}

func TestKernelMethodParsing(t *testing.T) {
	for _, k := range []Kernel{Gaussian, Triangular, Cosine, Exponential, Epanechnikov, Quartic, Uniform} {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Errorf("kernel round trip %v: %v %v", k, got, err)
		}
	}
	for _, m := range []Method{MethodQuadratic, MethodLinear, MethodMinMax, MethodExact, MethodZOrder} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("method round trip %v: %v %v", m, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestLinearMethodRejectsNonGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	_, err := NewFromPoints(testCloud(rng, 100), WithKernel(Triangular), WithMethod(MethodLinear))
	if err == nil {
		t.Error("KARL with triangular kernel accepted (paper Section 5.1 forbids it)")
	}
}

func TestZOrderRequires2D(t *testing.T) {
	pts := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if _, err := NewFromPoints(pts, WithMethod(MethodZOrder)); err == nil {
		t.Error("Z-order on 3-d dataset accepted")
	}
}

func TestEstimateAgainstDensityAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cloud := testCloud(rng, 2000)
	exactKDV, err := NewFromPoints(cloud, WithMethod(MethodExact))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodQuadratic, MethodLinear, MethodMinMax} {
		k, err := NewFromPoints(cloud, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			q := []float64{rng.Float64()*12 - 2, rng.Float64()*8 - 2}
			exact, err := exactKDV.Density(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Estimate(q, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if exact > 0 && math.Abs(got-exact)/exact > 0.01 {
				t.Fatalf("%s: rel err %g", m, math.Abs(got-exact)/exact)
			}
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	k, err := NewFromPoints(testCloud(rng, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Estimate([]float64{1}, 0.01); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, err := k.Estimate([]float64{1, 2}, -0.5); err == nil {
		t.Error("negative ε accepted")
	}
	if _, err := k.Density([]float64{1, 2, 3}); err == nil {
		t.Error("wrong-dim Density accepted")
	}
	if _, err := k.IsHot([]float64{1}, 0.5); err == nil {
		t.Error("wrong-dim IsHot accepted")
	}
}

func TestIsHotMatchesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	cloud := testCloud(rng, 1500)
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := []float64{rng.Float64() * 10, rng.Float64() * 6}
		d, err := k.Density(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.7, 1.3} {
			tau := d * frac
			if tau <= 0 {
				continue
			}
			hot, err := k.IsHot(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if hot != (d >= tau) {
				t.Fatalf("IsHot(τ=%g) = %v, density %g", tau, hot, d)
			}
		}
	}
}

func TestScottDefaultsAndOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	cloud := testCloud(rng, 500)
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	if k.Gamma() <= 0 || k.Weight() != 1.0/500 || k.Bandwidth() <= 0 {
		t.Errorf("Scott defaults: γ=%g w=%g h=%g", k.Gamma(), k.Weight(), k.Bandwidth())
	}
	k2, err := NewFromPoints(cloud, WithBandwidth(2.5, 0.125))
	if err != nil {
		t.Fatal(err)
	}
	if k2.Gamma() != 2.5 || k2.Weight() != 0.125 {
		t.Errorf("overrides ignored: γ=%g w=%g", k2.Gamma(), k2.Weight())
	}
	if k.KernelFunc() != Gaussian || k.EvalMethod() != MethodQuadratic {
		t.Errorf("defaults: %v %v", k.KernelFunc(), k.EvalMethod())
	}
	if k.Dim() != 2 || k.Len() != 500 {
		t.Errorf("Dim/Len: %d %d", k.Dim(), k.Len())
	}
}

func TestRenderEpsMatchesExactRender(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	cloud := testCloud(rng, 1200)
	res := Resolution{W: 24, H: 18}
	exactK, err := NewFromPoints(cloud, WithMethod(MethodExact))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exactK.RenderEps(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodQuadratic, MethodLinear, MethodMinMax} {
		k, err := NewFromPoints(cloud, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		dm, err := k.RenderEps(res, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if len(dm.Values) != res.W*res.H {
			t.Fatalf("%s: %d values", m, len(dm.Values))
		}
		for i, v := range dm.Values {
			if ref.Values[i] > 0 && math.Abs(v-ref.Values[i])/ref.Values[i] > 0.01 {
				t.Fatalf("%s: pixel %d rel err %g", m, i, math.Abs(v-ref.Values[i])/ref.Values[i])
			}
		}
	}
}

func TestRenderZOrderApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	cloud := testCloud(rng, 5000)
	res := Resolution{W: 16, H: 12}
	exactK, _ := NewFromPoints(cloud, WithMethod(MethodExact))
	ref, err := exactK.RenderEps(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	zk, err := NewFromPoints(cloud, WithMethod(MethodZOrder), WithZOrderGuarantee(0.01, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := zk.RenderEps(res, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilistic guarantee — check the average error is small rather
	// than a per-pixel bound.
	var sum float64
	var cnt int
	for i, v := range dm.Values {
		if ref.Values[i] > 1e-6 {
			sum += math.Abs(v-ref.Values[i]) / ref.Values[i]
			cnt++
		}
	}
	if cnt == 0 || sum/float64(cnt) > 0.2 {
		t.Errorf("Z-order average rel err %g over %d pixels", sum/float64(cnt), cnt)
	}
}

func TestRenderTauAgainstDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	cloud := testCloud(rng, 800)
	res := Resolution{W: 20, H: 16}
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := k.RenderEps(res, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := dm.MuSigma()
	if mu <= 0 || sigma <= 0 {
		t.Fatalf("μ=%g σ=%g", mu, sigma)
	}
	hm, err := k.RenderTau(res, mu)
	if err != nil {
		t.Fatal(err)
	}
	frac := hm.HotFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("hot fraction %g at τ=μ should be interior", frac)
	}
	// Classification must agree with the ε-render values except within a
	// hair of the threshold.
	for i, v := range dm.Values {
		margin := 0.01 * v
		if v > mu+margin && !hm.Hot[i] {
			t.Fatalf("pixel %d density %g > τ=%g but cold", i, v, mu)
		}
		if v < mu-margin && hm.Hot[i] {
			t.Fatalf("pixel %d density %g < τ=%g but hot", i, v, mu)
		}
	}
}

func TestRenderRequires2D(t *testing.T) {
	pts := [][]float64{{1, 2, 3}, {4, 5, 6}, {0, 1, 2}}
	k, err := NewFromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RenderEps(Resolution{8, 8}, 0.01); err == nil {
		t.Error("render of 3-d dataset accepted")
	}
	// But Estimate must work in 3-d (general KDE, paper Section 7.7).
	if _, err := k.Estimate([]float64{1, 2, 3}, 0.01); err != nil {
		t.Errorf("3-d Estimate failed: %v", err)
	}
}

func TestRenderParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	cloud := testCloud(rng, 1000)
	res := Resolution{W: 20, H: 20}
	serial, err := NewFromPoints(cloud, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewFromPoints(cloud, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	a, err := serial.RenderEps(res, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.RenderEps(res, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] > 0 && math.Abs(a.Values[i]-b.Values[i])/a.Values[i] > 0.002 {
			t.Fatalf("parallel render diverges at pixel %d: %g vs %g", i, a.Values[i], b.Values[i])
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	k, err := NewFromPoints(testCloud(rng, 800))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				q := []float64{r.Float64() * 10, r.Float64() * 6}
				if _, err := k.Estimate(q, 0.05); err != nil {
					t.Errorf("concurrent Estimate: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestProgressiveRender(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	cloud := testCloud(rng, 1500)
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	res := Resolution{W: 32, H: 24}
	// Full run.
	full, err := k.Render(context.Background(), Request{Variant: ProgressiveKDV, Res: res, Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete || full.Evaluated != res.W*res.H {
		t.Fatalf("full progressive: complete=%v evaluated=%d", full.Complete, full.Evaluated)
	}
	// Partial run must fill every pixel and have bounded error vs full.
	part, err := k.Render(context.Background(), Request{Variant: ProgressiveKDV, Res: res, Eps: 0.01, MaxPixels: 50})
	if err != nil {
		t.Fatal(err)
	}
	if part.Complete || part.Evaluated != 50 {
		t.Fatalf("partial progressive: complete=%v evaluated=%d", part.Complete, part.Evaluated)
	}
	var worse int
	for i := range part.Density.Values {
		if part.Density.Values[i] == 0 && full.Density.Values[i] > 0 {
			worse++
		}
	}
	if worse > 0 {
		t.Errorf("%d pixels left unfilled by partial progressive render", worse)
	}
}

func TestThresholdStats(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	k, err := NewFromPoints(testCloud(rng, 600))
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma, err := k.ThresholdStatsCtx(context.Background(), Resolution{20, 16}, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if mu <= 0 || sigma <= 0 {
		t.Errorf("μ=%g σ=%g", mu, sigma)
	}
}

func TestSavePNGs(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	k, err := NewFromPoints(testCloud(rng, 400))
	if err != nil {
		t.Fatal(err)
	}
	res := Resolution{W: 16, H: 12}
	dm, err := k.RenderEps(res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dm.SavePNG(filepath.Join(dir, "heat.png"), true); err != nil {
		t.Fatal(err)
	}
	mu, _ := dm.MuSigma()
	hm, err := k.RenderTau(res, mu)
	if err != nil {
		t.Fatal(err)
	}
	if err := hm.SavePNG(filepath.Join(dir, "tau.png")); err != nil {
		t.Fatal(err)
	}
	if hm.At(0, 0) != hm.Hot[0] {
		t.Error("HotspotMap.At inconsistent")
	}
	if dm.At(1, 1) != dm.Values[1*res.W+1] {
		t.Error("DensityMap.At inconsistent")
	}
}

func TestAllKernelsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cloud := testCloud(rng, 600)
	for _, kn := range []Kernel{Gaussian, Triangular, Cosine, Exponential, Epanechnikov, Quartic, Uniform} {
		k, err := NewFromPoints(cloud, WithKernel(kn))
		if err != nil {
			t.Fatalf("%v: %v", kn, err)
		}
		q := []float64{4, 4}
		exact, err := k.Density(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Estimate(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if exact > 0 && math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("%v: rel err %g", kn, math.Abs(got-exact)/exact)
		}
	}
}

func TestDensityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	cloud := testCloud(rng, 500)
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{4, 2}
	lb, ub, err := k.DensityBounds(q)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := k.Density(q)
	if lb > exact || ub < exact {
		t.Errorf("root bounds [%g, %g] do not sandwich %g", lb, ub, exact)
	}
	ke, _ := NewFromPoints(cloud, WithMethod(MethodExact))
	if _, _, err := ke.DensityBounds(q); err == nil {
		t.Error("DensityBounds on exact method accepted")
	}
}

func TestWithLeafSize(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	cloud := testCloud(rng, 500)
	k, err := NewFromPoints(cloud, WithLeafSize(4))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{4, 4}
	exact, _ := k.Density(q)
	got, _ := k.Estimate(q, 0.01)
	if exact > 0 && math.Abs(got-exact)/exact > 0.01 {
		t.Errorf("leaf-size-4 estimate off: %g vs %g", got, exact)
	}
}

func TestRenderProgressiveStream(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	k, err := NewFromPoints(testCloud(rng, 800))
	if err != nil {
		t.Fatal(err)
	}
	res := Resolution{W: 16, H: 16}
	var levels []int
	var finals int
	req := Request{Variant: ProgressiveKDV, Res: res, Eps: 0.05}
	req.Emit = func(s Snapshot) bool {
		levels = append(levels, s.Level)
		if s.Final {
			finals++
		}
		if len(s.Map.Values) != res.W*res.H {
			t.Errorf("snapshot raster has %d values", len(s.Map.Values))
		}
		return true
	}
	r, err := k.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete {
		t.Error("stream run incomplete")
	}
	if len(levels) < 3 || finals != 1 {
		t.Errorf("levels %v finals %d", levels, finals)
	}
	// Early termination via the callback.
	req.Emit = func(s Snapshot) bool { return false }
	stopped, err := k.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Complete {
		t.Error("callback-stopped run reported complete")
	}
	req.Eps = -1
	if _, err := k.Render(context.Background(), req); err == nil {
		t.Error("negative eps accepted")
	}
}

// TestCheckPixels covers the raster cap on sizes no render test may try:
// 2³¹×3 passed every check at the parent of the cap, and the process died
// allocating a 48 GiB raster, a fatal error no recover can catch.
func TestCheckPixels(t *testing.T) {
	for _, c := range []struct {
		w, h int
		ok   bool
	}{
		{2560, 1920, true},
		{1 << 14, 1 << 14, true},
		{1 << 28, 1, true},
		{1, 1 << 28, true},
		{1<<28 + 1, 1, false},
		{1 << 31, 3, false},
		{1 << 32, 1 << 32, false},
		{math.MaxInt, math.MaxInt, false},
		{0, 5, false},
		{5, -1, false},
	} {
		if err := checkPixels(c.w, c.h); (err == nil) != c.ok {
			t.Errorf("checkPixels(%d, %d) = %v, want ok=%v", c.w, c.h, err, c.ok)
		}
	}
}
