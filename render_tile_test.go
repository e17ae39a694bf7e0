package quad

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

// uniformCloud builds an unclustered dataset — the adversarial case for
// tile sharing, where no node settles early.
func uniformCloud(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	return pts
}

// TestRenderEpsTileGuarantee is the εKDV property test: every pixel of a
// tile-shared render must be within relative error ε of the exact density,
// on clustered and uniform data and across tile sizes (including 1, the
// per-pixel baseline).
func TestRenderEpsTileGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	res := Resolution{W: 48, H: 36}
	const eps = 0.05
	for name, cloud := range map[string][][]float64{
		"clustered": testCloud(rng, 800),
		"uniform":   uniformCloud(rng, 800),
	} {
		exactK, err := NewFromPoints(cloud, WithMethod(MethodExact))
		if err != nil {
			t.Fatal(err)
		}
		want, err := exactK.RenderEps(res, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range []int{0, 1, 4, 16, 64} {
			k, err := NewFromPoints(cloud, WithTileSize(tile), WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.RenderEps(res, eps)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Values {
				f := want.Values[i]
				if diff := v - f; diff > eps*f || -diff > eps*f {
					t.Fatalf("%s tile=%d pixel %d: got %g, exact %g, rel err %g beyond eps %g",
						name, tile, i, v, f, (v-f)/f, eps)
				}
			}
		}
	}
}

// TestRenderTauTileMaskIdentity checks that tile-shared τKDV masks are
// identical to per-pixel refinement and to exact classification, across τ
// regimes that exercise decided-hot, decided-cold and mixed tiles.
func TestRenderTauTileMaskIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cloud := testCloud(rng, 800)
	res := Resolution{W: 48, H: 36}

	exactK, err := NewFromPoints(cloud, WithMethod(MethodExact))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := exactK.RenderEps(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := dm.MuSigma()

	perPixel, err := NewFromPoints(cloud, WithTileSize(1))
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := NewFromPoints(cloud, WithTileSize(16), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{mu - sigma, mu, mu + sigma, mu + 2*sigma} {
		if tau <= 0 {
			continue
		}
		want, err := perPixel.RenderTau(res, tau)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tiled.RenderTau(res, tau)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Hot {
			if got.Hot[i] != want.Hot[i] {
				t.Fatalf("tau=%g pixel %d: tile-shared %v, per-pixel %v (exact density %g)",
					tau, i, got.Hot[i], want.Hot[i], dm.Values[i])
			}
			if exact := dm.Values[i] >= tau; got.Hot[i] != exact {
				t.Fatalf("tau=%g pixel %d: tile-shared %v, exact classification %v", tau, i, got.Hot[i], exact)
			}
		}
	}
}

// TestRenderWorkerDeterminism: the work-stealing scheduler only moves tiles
// between workers, so the rendered output must be bit-identical for every
// worker count.
func TestRenderWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cloud := testCloud(rng, 600)
	res := Resolution{W: 40, H: 30}

	var refEps []float64
	var refTau []bool
	for _, workers := range []int{1, 2, 3, 8, 32} {
		k, err := NewFromPoints(cloud, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		dm, err := k.RenderEps(res, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		hm, err := k.RenderTau(res, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if refEps == nil {
			refEps = append(refEps, dm.Values...)
			refTau = append(refTau, hm.Hot...)
			continue
		}
		for i, v := range dm.Values {
			if v != refEps[i] {
				t.Fatalf("workers=%d: εKDV pixel %d differs: %g vs %g", workers, i, v, refEps[i])
			}
		}
		for i, h := range hm.Hot {
			if h != refTau[i] {
				t.Fatalf("workers=%d: τKDV pixel %d differs", workers, i)
			}
		}
	}
}

// TestRenderStatsCounters sanity-checks the RenderStats plumbing: pixel
// counts match the raster, tile sharing records shared work, and the
// per-pixel baseline records none.
func TestRenderStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cloud := testCloud(rng, 600)
	res := Resolution{W: 64, H: 48}

	tiled, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tiled.Render(context.Background(), Request{Res: res, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats
	if st.Pixels != res.W*res.H {
		t.Errorf("Pixels = %d, want %d", st.Pixels, res.W*res.H)
	}
	if st.Tiles == 0 || st.SharedNodeEvals == 0 {
		t.Errorf("tile-shared render recorded no shared work: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Errorf("Elapsed not recorded: %v", st.Elapsed)
	}

	perPixel, err := NewFromPoints(cloud, WithTileSize(1))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := perPixel.Render(context.Background(), Request{Res: res, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pst := pr.Stats
	if pst.SharedNodeEvals != 0 || pst.Tiles != 0 {
		t.Errorf("per-pixel baseline recorded shared work: %+v", pst)
	}
	if pst.NodesEvaluated == 0 {
		t.Errorf("per-pixel baseline recorded no node evaluations")
	}
	// The whole point: tile sharing must cut per-pixel node evaluations.
	if st.NodesEvaluated >= pst.NodesEvaluated {
		t.Errorf("tile sharing did not reduce per-pixel node evals: tiled %d vs per-pixel %d",
			st.NodesEvaluated, pst.NodesEvaluated)
	}

	tr, err := tiled.Render(context.Background(), Request{Variant: TauKDV, Res: res, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	tst := tr.Stats
	if tst.Pixels != res.W*res.H || tst.Tiles == 0 {
		t.Errorf("τKDV stats incomplete: %+v", tst)
	}
}

// TestRenderStatsDepthAndStages checks the PR4 stats additions: the
// refinement-depth histogram accounts for every refined pixel, the shared
// stage records wall time, and Render populates everything the
// header/slow-query plumbing reads.
func TestRenderStatsDepthAndStages(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cloud := testCloud(rng, 600)
	res := Resolution{W: 64, H: 48}
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}

	r, err := k.Render(context.Background(), Request{Res: res, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats
	var depth int
	for _, n := range st.DepthPixels {
		depth += n
	}
	// εKDV renders refine every pixel (fills happen only for decided τ
	// tiles), so the depth histogram must cover the whole raster.
	if depth != st.Pixels {
		t.Errorf("sum(DepthPixels) = %d, want Pixels = %d (%v)", depth, st.Pixels, st.DepthPixels)
	}
	if st.SharedElapsed <= 0 || st.SharedElapsed > st.Elapsed*64 {
		// SharedElapsed is summed across workers, so it may exceed wall
		// time — but not by more than the worker count.
		t.Errorf("SharedElapsed implausible: shared %v vs elapsed %v", st.SharedElapsed, st.Elapsed)
	}

	tr, err := k.Render(context.Background(), Request{Variant: TauKDV, Res: res, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	tst := tr.Stats
	var tdepth int
	for _, n := range tst.DepthPixels {
		tdepth += n
	}
	// τKDV fills decided tiles without refining their pixels.
	if tdepth > tst.Pixels {
		t.Errorf("τ sum(DepthPixels) = %d > Pixels = %d", tdepth, tst.Pixels)
	}
	if tst.TilesDecided > 0 && tdepth == tst.Pixels {
		t.Errorf("decided tiles recorded per-pixel depth entries: %+v", tst)
	}

	// Per-pixel baseline: no shared stage, no promotions, full depth cover.
	pp, err := NewFromPoints(cloud, WithTileSize(1))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pp.Render(context.Background(), Request{Res: res, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pst := pr.Stats
	if pst.SharedElapsed != 0 || pst.FrontierPromotions != 0 {
		t.Errorf("per-pixel baseline recorded shared stage work: %+v", pst)
	}
}

// TestRenderStatsAddSumsEveryCounter sets every numeric field of a
// RenderStats, array elements included, to a distinct value through
// reflection and checks that Add sums it, so a counter added to the struct
// cannot be left out of the sum. Elapsed is wall time and is not summed.
func TestRenderStatsAddSumsEveryCounter(t *testing.T) {
	var o RenderStats
	ov := reflect.ValueOf(&o).Elem()
	next := int64(1)
	for i := 0; i < ov.NumField(); i++ {
		f := ov.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(next)
			next++
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(next)
				next++
			}
		default:
			t.Fatalf("RenderStats.%s has kind %s, which this test does not set", ov.Type().Field(i).Name, f.Kind())
		}
	}
	var s RenderStats
	s.Add(o)
	s.Add(o)
	sv := reflect.ValueOf(s)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		check := func(got, in int64, at string) {
			want := 2 * in
			if name == "Elapsed" {
				want = 0
			}
			if got != want {
				t.Errorf("RenderStats.%s%s after two Adds of %d = %d, want %d", name, at, in, got, want)
			}
		}
		if f, of := sv.Field(i), ov.Field(i); f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				check(f.Index(j).Int(), of.Index(j).Int(), fmt.Sprintf("[%d]", j))
			}
		} else {
			check(f.Int(), of.Int(), "")
		}
	}
}

// TestHotFractionEmpty: an empty hotspot map has hot fraction 0, not NaN.
func TestHotFractionEmpty(t *testing.T) {
	m := &HotspotMap{}
	if f := m.HotFraction(); f != 0 {
		t.Errorf("empty HotFraction = %g, want 0", f)
	}
}

// TestMapRelease exercises the pooled-buffer round trip: Release and a
// subsequent render must not corrupt earlier results.
func TestMapRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cloud := testCloud(rng, 300)
	res := Resolution{W: 32, H: 24}
	k, err := NewFromPoints(cloud)
	if err != nil {
		t.Fatal(err)
	}
	a, err := k.RenderEps(res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]float64(nil), a.Values...)
	a.Release()
	if a.Values != nil {
		t.Fatal("Release did not clear Values")
	}
	b, err := k.RenderEps(res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range b.Values {
		if v != keep[i] {
			t.Fatalf("render after Release differs at %d: %g vs %g", i, v, keep[i])
		}
	}
	hm, err := k.RenderTau(res, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	hm.Release()
	if hm.Hot != nil {
		t.Fatal("Release did not clear Hot")
	}
}

// TestRenderTauTailMatchesOracle renders τKDV over windows 0.5, 1 and 2
// widths east of the data, where every density is a kernel tail, at τ
// values between the oracle's tail densities. The hot mask must be the
// Kahan oracle's exactly: a tile decided on pending sums that were never
// confirmed by a recompute fills every pixel of it with one bit.
func TestRenderTauTailMatchesOracle(t *testing.T) {
	pts := dataset.Crime(8000, 7)
	k, err := New(pts.Coords, 2)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.New(pts, nil, kernel.Gaussian, k.Gamma(), k.Weight())
	if err != nil {
		t.Fatal(err)
	}
	full, err := k.DefaultWindow()
	if err != nil {
		t.Fatal(err)
	}
	res := Resolution{W: 48, H: 48}
	for _, off := range []float64{0.5, 1, 2} {
		win := full
		shift := off * (full.MaxX - full.MinX)
		win.MinX += shift
		win.MaxX += shift
		g, err := grid.New(res.internal(), geomRect(win))
		if err != nil {
			t.Fatal(err)
		}
		exact := o.Raster(g)
		for _, tau := range tailTaus(exact, 9) {
			r, err := k.Render(context.Background(), Request{Variant: TauKDV, Res: res, Window: win, Tau: tau})
			if err != nil {
				t.Fatal(err)
			}
			bad := 0
			for i, hot := range r.Hot.Hot {
				if hot != (exact[i] >= tau) {
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("off=%g τ=%g: %d of %d pixels differ from the oracle's hot mask", off, tau, bad, len(exact))
			}
		}
	}
}

// tailTaus returns up to n thresholds spread over the quantiles of vals,
// each halfway (geometrically) across a gap between consecutive distinct
// values wide enough that no density lies within rounding of it.
func tailTaus(vals []float64, n int) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	var taus []float64
	for i := 1; i <= n; i++ {
		for j := i * len(s) / (n + 1); j+1 < len(s); j++ {
			if lo, hi := s[j], s[j+1]; lo > 0 && hi > lo*(1+1e-6) {
				taus = append(taus, math.Sqrt(lo)*math.Sqrt(hi))
				break
			}
		}
	}
	return taus
}

// TestRenderEpsBelowNormalRange pins the εKDV rule below the normal range:
// a subnormal has too few bits to carry relative error ε, so a pixel whose
// exact density F is below 2⁻¹⁰²² is held to ε relative to 2⁻¹⁰²², that is
// |R − F| ≤ ε·max(F, 2⁻¹⁰²²). The window lies past crime's data, where some
// pixels' densities are subnormal; at ε·F alone, quad's render misses five
// of them and karl's one, by at most 3.5e-323.
func TestRenderEpsBelowNormalRange(t *testing.T) {
	const eps = 0.01
	pts := dataset.Crime(60, 7)
	res := Resolution{W: 24, H: 101}
	win := Window{MinX: 25, MinY: 100, MaxX: 60, MaxY: 800}
	for _, m := range []Method{MethodQuadratic, MethodLinear, MethodMinMax} {
		k, err := New(pts.Coords, 2, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		r, err := k.Render(context.Background(), Request{Res: res, Window: win, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		g, err := grid.New(res.internal(), geomRect(win))
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, 2)
		subnormal := 0
		for i, v := range r.Density.Values {
			g.Query(i%res.W, i/res.W, q)
			f, err := k.Density(q)
			if err != nil {
				t.Fatal(err)
			}
			if f < 0x1p-1022 {
				subnormal++
			}
			if d := math.Abs(v - f); d > eps*math.Max(f, 0x1p-1022) {
				t.Errorf("%s: pixel %d renders %g, exact %g: |R − F| = %g", m, i, v, f, d)
			}
		}
		if subnormal == 0 {
			t.Fatalf("%s: no pixel's density is subnormal; the window no longer tests the rule", m)
		}
	}
}
