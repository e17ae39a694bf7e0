package main

import (
	"context"
	"io"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/tiles"
)

// exactFamilies are the program counters the per-layer metrics read that a
// single client drives deterministically.
var exactFamilies = []string{
	"kdv_render_pixels_total",
	"kdv_render_node_evals_total",
	"kdv_render_shared_node_evals_total",
	"kdv_render_leaf_scans_total",
	"kdv_render_points_scanned_total",
	"kdv_render_queue_pops_total",
	"kdv_render_frontier_promotions_total",
	"kdv_render_tile_envelope_decided_total",
	"kdv_cache_hits_total",
	"kdv_cache_misses_total",
	"kdv_cache_coalesced_total",
	"kdv_cache_evictions_total",
	"kdv_tiles_hits_total",
	"kdv_tiles_misses_total",
	"kdv_tiles_builds_total",
	"kdv_tiles_store_writes_total",
	"kdv_audit_checks_total",
	"kdv_audit_pixels_total",
	"kdv_audit_violations_total",
}

// singleClientCounts runs one fixed single-client request sequence on a
// fresh server and returns the counter deltas of its timed phase.
func singleClientCounts(t *testing.T) scrape {
	t.Helper()
	b := &bench{workload: "counts", seed: 3, seconds: 60, workdir: t.TempDir(), out: io.Discard,
		busy: 1, chk: newChecker(3)}
	cfg := testConfig(t)
	cfg.AuditFraction = 0.5 // make the audit counters move
	h, err := boot(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	k, err := b.chk.kdv(query{dataset: "crime", n: testN, dseed: 1, eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	win, err := k.DefaultWindow()
	if err != nil {
		t.Fatal(err)
	}
	xy := make([]float64, 0, 64)
	for i := 0; i < 32; i++ {
		xy = append(xy, win.MinX+float64(i)*(win.MaxX-win.MinX)/32, win.MinY+float64(i%7)*(win.MaxY-win.MinY)/7)
	}
	var qs []query
	path := panZoomPath(3, win, xy)
	for len(qs) < 12 {
		q := path()
		q.n, q.res = testN, quad.Resolution{W: 32, H: 32}
		qs = append(qs, q)
	}
	hot := query{endpoint: epHotspots, dataset: "crime", n: testN, dseed: 1, eps: 0.05,
		res: quad.Resolution{W: 32, H: 32}, tauK: 1}
	qs = append(qs, hot, hot)
	for _, c := range []tiles.Coord{{Z: 1}, {Z: 1, X: 1}, {Z: 1}, {Z: 2, X: 1, Y: 2}} {
		q := tileQuery(c)
		q.n = testN
		qs = append(qs, q)
	}
	i := 0
	seq := &sequence{gen: func() query { i++; return qs[i-1] }, limit: len(qs)}
	if err := b.closedPhase(context.Background(), h, 1, seq, time.Minute,
		func(query, reply) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("%d requests failed: %v", b.failed, b.failures)
	}
	return b.counts
}

// TestCountsRepeatExactly: the program's per-layer counts are a property of
// the request sequence, so two single-client runs must agree exactly.
func TestCountsRepeatExactly(t *testing.T) {
	a, b := singleClientCounts(t), singleClientCounts(t)
	moved := 0
	for _, fam := range exactFamilies {
		va, vb := a.sum(fam), b.sum(fam)
		if va != vb {
			t.Errorf("%s: %v then %v", fam, va, vb)
		}
		if va != 0 {
			moved++
		}
	}
	if a.sum("kdv_render_pixels_total") == 0 || a.sum("kdv_audit_checks_total") == 0 ||
		a.sum("kdv_tiles_builds_total") == 0 {
		t.Errorf("the sequence left render, audit or tile counters at zero: %d families moved", moved)
	}
}
