package main

import (
	"context"
	"net/http"
	"strconv"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/serve"
	"github.com/quadkdv/quad/internal/tiles"
)

// testN keeps the tests' dataset small; the checks do not depend on size.
const testN = 3000

func testConfig(t *testing.T) serve.Config {
	c := baseConfig()
	c.DefaultN = testN
	c.TileSize = 64
	c.TilesDir = t.TempDir()
	return c
}

func testServer(t *testing.T) *harness {
	t.Helper()
	h, err := boot(testConfig(t), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.close() })
	return h
}

func served(t *testing.T, h *harness, q query) reply {
	t.Helper()
	r, err := h.get(context.Background(), q.path(), nil, clock{busy: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, ht := q.size()
	if err := checkPNG(r, w, ht); err != nil {
		t.Fatalf("%s: %v", q.path(), err)
	}
	return r
}

// flipped returns a copy of r whose body differs in one byte.
func flipped(r reply, at int) reply {
	body := append([]byte(nil), r.body...)
	body[at%len(body)] ^= 0x01
	r.body = body
	return r
}

func renderQuery() query {
	return query{endpoint: epRender, dataset: "crime", n: testN, dseed: 1, eps: 0.05,
		res: quad.Resolution{W: 32, H: 32}, win: quad.Window{MinX: 20, MinY: 20, MaxX: 60, MaxY: 60}}
}

// TestCheckerRejectsFlippedByte: one flipped body byte fails the re-render
// comparison, wherever it lands.
func TestCheckerRejectsFlippedByte(t *testing.T) {
	h := testServer(t)
	q := renderQuery()
	r := served(t, h, q)
	c := newChecker(1)
	ctx := context.Background()
	if err := c.verify(ctx, q, r); err != nil {
		t.Fatalf("honest response rejected: %v", err)
	}
	for _, at := range []int{0, len(r.body) / 2, len(r.body) - 1} {
		if err := c.verify(ctx, q, flipped(r, at)); err == nil {
			t.Errorf("byte %d flipped: checker passed it", at)
		}
	}
}

// TestCheckerRejectsWrongTau: a served τ that is not the library's μ+kσ
// fails, even when the bytes would match it.
func TestCheckerRejectsWrongTau(t *testing.T) {
	h := testServer(t)
	q := query{endpoint: epHotspots, dataset: "crime", n: testN, dseed: 1, eps: 0.05,
		res: quad.Resolution{W: 32, H: 32}, tauK: 1}
	r := served(t, h, q)
	c := newChecker(1)
	ctx := context.Background()
	if err := c.verify(ctx, q, r); err != nil {
		t.Fatalf("honest response rejected: %v", err)
	}
	tau, err := strconv.ParseFloat(r.header.Get("X-KDV-Tau"), 64)
	if err != nil {
		t.Fatal(err)
	}
	bad := r
	bad.header = r.header.Clone()
	bad.header.Set("X-KDV-Tau", strconv.FormatFloat(tau*1.0001, 'g', -1, 64))
	if err := c.verify(ctx, q, bad); err == nil {
		t.Error("wrong X-KDV-Tau passed the checker")
	}
	// The same mistake one level down: the request asked for μ+2σ, the
	// server answered μ+σ.
	wrongK := q
	wrongK.tauK = 2
	if err := c.verify(ctx, wrongK, r); err == nil {
		t.Error("a μ+σ answer passed as μ+2σ")
	}
}

// TestCheckerRejectsMismatchedDiskTile: a disk tier serving other bytes
// than the build tier fails the tier comparison; so does an ETag that
// does not hash the body.
func TestCheckerRejectsMismatchedDiskTile(t *testing.T) {
	h := testServer(t)
	c := newChecker(1)
	ctx := context.Background()
	q := query{endpoint: epTiles, dataset: "crime", n: testN, dseed: 1, eps: 0.05,
		tile: tiles.Coord{Z: 1, X: 1, Y: 0}, tileSize: 64}
	built := served(t, h, q)
	if src := built.header.Get("X-KDV-Tile-Source"); src != "build" {
		t.Fatalf("first fetch came from %q", src)
	}
	if err := c.verify(ctx, q, built); err != nil {
		t.Fatalf("honest tile rejected: %v", err)
	}
	mem := served(t, h, q)
	c.tier(q, "build", built)
	c.tier(q, "memory", mem)
	if err := c.tierConflicts(); err != nil {
		t.Fatalf("honest tiers rejected: %v", err)
	}
	// A disk tier whose bytes differ, with an ETag that matches them.
	disk := flipped(mem, len(mem.body)/2)
	disk.header = mem.header.Clone()
	disk.header.Set("ETag", tiles.ETagFor(disk.body))
	c.tier(q, "disk", disk)
	if err := c.tierConflicts(); err == nil {
		t.Error("mismatched disk tile passed the tier check")
	}
	if err := c.verify(ctx, q, disk); err == nil {
		t.Error("mismatched disk tile passed the library re-render")
	}
	// A stale ETag on the right bytes.
	c2 := newChecker(1)
	stale := mem
	stale.header = mem.header.Clone()
	stale.header.Set("ETag", `"0000"`)
	c2.tier(q, "disk", stale)
	if err := c2.tierConflicts(); err == nil {
		t.Error("an ETag that does not hash the body passed")
	}
	// Revalidation: a matching If-None-Match gets an empty 304.
	r, err := h.get(ctx, q.path(), http.Header{"If-None-Match": {mem.header.Get("ETag")}}, clock{busy: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNotModified(r, mem.header.Get("ETag")); err != nil {
		t.Errorf("revalidation: %v", err)
	}
	r.body = []byte("x")
	if err := checkNotModified(r, mem.header.Get("ETag")); err == nil {
		t.Error("a 304 with a body passed")
	}
}
