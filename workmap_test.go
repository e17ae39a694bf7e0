package quad

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/quadkdv/quad/internal/trace"
)

// TestWorkMapEpsMatchesStats checks the work map's cross-total invariant:
// the per-pixel rasters are recorded at exactly the sites that feed
// RenderStats.addPixel, so their sums must equal the aggregate counters —
// and the density raster must be identical to a plain stats render.
func TestWorkMapEpsMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cloud := testCloud(rng, 600)
	res := Resolution{W: 40, H: 32}
	const eps = 0.05
	for _, tile := range []int{1, 4, 16} {
		k, err := NewFromPoints(cloud, WithTileSize(tile), WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		dm, wm, st, err := k.RenderEpsWorkMap(res, eps)
		if err != nil {
			t.Fatal(err)
		}
		if wm.Res != res || len(wm.Depth) != res.W*res.H || len(wm.Evals) != res.W*res.H || len(wm.Gap) != res.W*res.H {
			t.Fatalf("tile=%d: bad work-map shape %+v", tile, wm.Res)
		}
		depth, evals, _ := wm.Totals()
		if depth != st.Iterations {
			t.Errorf("tile=%d: work-map depth total %d != stats iterations %d", tile, depth, st.Iterations)
		}
		if evals != st.NodesEvaluated {
			t.Errorf("tile=%d: work-map eval total %d != stats node evals %d", tile, evals, st.NodesEvaluated)
		}
		if evals == 0 {
			t.Errorf("tile=%d: work map recorded no node evaluations", tile)
		}
		// The εKDV stop rule ub ≤ (1+ε)·lb bounds the settle gap by ε·lb ≤
		// ε·value; decided-from-frontier pixels can be fully refined (gap 0).
		for i, g := range wm.Gap {
			if g < 0 {
				t.Fatalf("tile=%d pixel %d: negative gap %g", tile, i, g)
			}
			if g > eps*dm.Values[i]+1e-12 {
				t.Fatalf("tile=%d pixel %d: settle gap %g beyond eps bound %g", tile, i, g, eps*dm.Values[i])
			}
		}
		if wm.WindowMin != dm.WindowMin || wm.WindowMax != dm.WindowMax {
			t.Errorf("tile=%d: work-map window %v..%v != map window %v..%v",
				tile, wm.WindowMin, wm.WindowMax, dm.WindowMin, dm.WindowMax)
		}
		plain, err := k.RenderEps(res, eps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.Values {
			if plain.Values[i] != dm.Values[i] {
				t.Fatalf("tile=%d: work-map render diverges from plain render at pixel %d", tile, i)
			}
		}
	}
}

// TestWorkMapTauDecidedTilesStayZero checks the τKDV work map: totals match
// stats, and with a far-out τ the shared phase decides tiles wholesale, so
// the per-pixel rasters record zero work for them.
func TestWorkMapTauDecidedTilesStayZero(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cloud := testCloud(rng, 600)
	res := Resolution{W: 40, H: 32}
	k, err := NewFromPoints(cloud, WithTileSize(8), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := k.RenderEps(res, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := dm.MuSigma()
	hm, wm, st, err := k.RenderTauWorkMap(res, mu+sigma)
	if err != nil {
		t.Fatal(err)
	}
	depth, evals, _ := wm.Totals()
	if depth != st.Iterations || evals != st.NodesEvaluated {
		t.Errorf("work-map totals (%d, %d) != stats (%d, %d)", depth, evals, st.Iterations, st.NodesEvaluated)
	}
	if st.TilesDecided == 0 {
		t.Skip("no decided tiles at this τ; invariant not exercised")
	}
	// Some pixels must have been settled without any per-pixel work.
	var zeros int
	for i := range wm.Evals {
		if wm.Evals[i] == 0 && wm.Depth[i] == 0 && wm.Gap[i] == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Errorf("decided tiles present (%d) but no zero-work pixels recorded", st.TilesDecided)
	}
	_ = hm
}

// TestWorkMapLayersAndPNG exercises layer parsing and PNG export of every
// layer.
func TestWorkMapLayersAndPNG(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	k, err := NewFromPoints(testCloud(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	_, wm, _, err := k.RenderEpsWorkMap(Resolution{W: 24, H: 18}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"depth", "evals", "gap"} {
		layer, err := ParseWorkMapLayer(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wm.EncodePNG(&buf, layer); err != nil {
			t.Fatalf("layer %s: %v", name, err)
		}
		if buf.Len() == 0 || !bytes.HasPrefix(buf.Bytes(), []byte("\x89PNG")) {
			t.Fatalf("layer %s: not a PNG (%d bytes)", name, buf.Len())
		}
	}
	if _, err := ParseWorkMapLayer("bogus"); err == nil {
		t.Error("bogus layer accepted")
	}
	if _, err := wm.Layer(WorkMapLayer("bogus")); err == nil {
		t.Error("bogus layer returned a raster")
	}
	if got, want := len(WorkMapLayers()), 3; got != want {
		t.Errorf("WorkMapLayers() has %d entries, want %d", got, want)
	}
}

// TestRenderStatsEmitsSpans checks that a stats render under a traced
// context decomposes into the render-stage spans, and that an untraced
// context emits nothing. With several workers, the shared_frontier child
// spans the per-worker mean of the shared stage's CPU time, not the sum.
func TestRenderStatsEmitsSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cloud := testCloud(rng, 300)
	res := Resolution{W: 24, H: 18} // 2×2 tiles of 16 px
	for _, workers := range []int{1, 4} {
		k, err := NewFromPoints(cloud, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New()
		ctx := trace.NewContext(context.Background(), tr)
		_, st, err := k.RenderEpsStatsInCtx(ctx, res, 0.05, Window{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != workers {
			t.Errorf("workers=%d: Stats.Workers = %d", workers, st.Workers)
		}
		spans := tr.Spans()
		byName := map[string]*trace.Span{}
		for _, s := range spans {
			byName[s.Name] = s
		}
		root := byName["render.eps"]
		if root == nil {
			t.Fatalf("workers=%d: no render.eps span; got %d spans", workers, len(spans))
		}
		for _, child := range []string{"shared_frontier", "pixel_refinement"} {
			s := byName[child]
			if s == nil {
				t.Fatalf("workers=%d: missing %s span", workers, child)
			}
			if s.Parent != root.ID {
				t.Errorf("workers=%d: %s span not parented on render.eps", workers, child)
			}
			if s.Start.Before(root.Start) || s.Finish.After(root.Finish) {
				t.Errorf("workers=%d: %s span [%v, %v] outside parent [%v, %v]", workers, child, s.Start, s.Finish, root.Start, root.Finish)
			}
		}
		shared := byName["shared_frontier"]
		if want := min(st.SharedElapsed/time.Duration(workers), st.Elapsed); shared.Duration() != want {
			t.Errorf("workers=%d: shared_frontier spans %v, want %v (CPU sum %v)", workers, shared.Duration(), want, st.SharedElapsed)
		}
		attrs := map[string]any{}
		for _, a := range shared.Attrs() {
			attrs[a.Key] = a.Value()
		}
		if attrs["workers"] != float64(workers) {
			t.Errorf("workers=%d: shared_frontier workers attr = %v", workers, attrs["workers"])
		}
		if want := float64(st.SharedElapsed) / float64(time.Millisecond); attrs["cpu_ms"] != want {
			t.Errorf("workers=%d: shared_frontier cpu_ms = %v, want the CPU sum %v", workers, attrs["cpu_ms"], want)
		}

		// Untraced context: no spans, no panic.
		if _, _, err := k.RenderEpsStatsInCtx(context.Background(), res, 0.05, Window{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProgressiveStatsAndLevelSpans checks satellite coverage for the
// progressive path: the result carries populated RenderStats, and a traced
// streaming render emits one span per completed refinement level.
func TestProgressiveStatsAndLevelSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	k, err := NewFromPoints(testCloud(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	res := Resolution{W: 32, H: 32}

	r, err := k.RenderProgressive(res, 0.05, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete {
		t.Fatal("unbudgeted progressive render incomplete")
	}
	if r.Stats.Pixels != r.Evaluated {
		t.Errorf("Stats.Pixels = %d, want Evaluated %d", r.Stats.Pixels, r.Evaluated)
	}
	if r.Stats.NodesEvaluated == 0 && r.Stats.SharedNodeEvals == 0 {
		t.Error("progressive stats recorded no bound work")
	}
	if r.Stats.Elapsed != r.Elapsed {
		t.Errorf("Stats.Elapsed = %v, want %v", r.Stats.Elapsed, r.Elapsed)
	}
	if r.Stats.Workers != 1 {
		t.Errorf("Stats.Workers = %d, want 1: progressive renders run on one goroutine", r.Stats.Workers)
	}

	tr := trace.New()
	ctx := trace.NewContext(context.Background(), tr)
	var levels int
	sr, err := k.RenderProgressiveStreamCtx(ctx, res, 0.05, 0, func(s Snapshot) bool {
		levels++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var levelSpans int
	for _, s := range tr.Spans() {
		if len(s.Name) > len("progressive.level.") && s.Name[:len("progressive.level.")] == "progressive.level." {
			levelSpans++
		}
	}
	if levelSpans != levels {
		t.Errorf("got %d progressive.level spans, want one per snapshot (%d)", levelSpans, levels)
	}
	if sr.Stats.Pixels != sr.Evaluated || sr.Stats.NodesEvaluated+sr.Stats.SharedNodeEvals == 0 {
		t.Errorf("stream stats not populated: %+v", sr.Stats)
	}
}
