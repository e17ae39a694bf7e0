package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"os"
	"sync"
	"sync/atomic"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/render"
	"github.com/quadkdv/quad/internal/serve"
	"github.com/quadkdv/quad/internal/tiles"
	"github.com/quadkdv/quad/internal/trace"
)

// tracer is the traced run's span recorder. After each HTTP call it
// replays the same request through the layers' public calls, under a
// plain context so the program's own spans stay off, and records one span
// per call beneath the request's root span. Spans stay in memory until
// the run writes them out.
type tracer struct {
	b  *bench
	on atomic.Bool

	mu     sync.Mutex
	traces []*trace.Trace
	reps   map[string]int
	tiles  *tileReplay
	nth    int
}

func newTracer(b *bench) *tracer {
	return &tracer{b: b, reps: make(map[string]int)}
}

// armed reports whether requests are being traced now (false on an
// untraced run).
func (t *tracer) armed() bool { return t != nil && t.on.Load() }

// traceRoot is one traced request: its trace and root span.
type traceRoot struct {
	tr   *trace.Trace
	root *trace.Span
}

func (t *tracer) begin(q query) *traceRoot {
	tr := trace.New()
	root := tr.Start("request", nil)
	root.SetAttrs(trace.Str("endpoint", q.endpoint))
	return &traceRoot{tr: tr, root: root}
}

func (t *tracer) finish(rt *traceRoot) {
	rt.root.End()
	t.mu.Lock()
	t.traces = append(t.traces, rt.tr)
	t.mu.Unlock()
}

// span times one call as a child of parent.
func span(rt *traceRoot, name string, fn func()) *trace.Span {
	sp := rt.tr.Start(name, rt.root)
	fn()
	sp.End()
	return sp
}

// batchTarget is the length a batch of sub-millisecond calls aims at;
// batchFloor is the shortest batch that is recorded as it stands.
const (
	batchTarget = 2 * time.Millisecond
	batchFloor  = 1200 * time.Microsecond
)

// batched times a call that may take under a millisecond: it runs fn reps
// times inside one span, and keeps running it until the span reaches
// batchFloor. reps is calibrated once per span name, outside any span, by
// running fn for a whole batchTarget.
func (t *tracer) batched(rt *traceRoot, name string, fn func()) {
	t.mu.Lock()
	reps, ok := t.reps[name]
	t.mu.Unlock()
	if !ok {
		start := time.Now()
		n := 0
		for time.Since(start) < batchTarget {
			fn()
			n++
		}
		reps = n
		t.mu.Lock()
		t.reps[name] = reps
		t.mu.Unlock()
	}
	sp := rt.tr.Start(name, rt.root)
	n := 0
	for ; n < reps || time.Since(sp.Start) < batchFloor; n++ {
		fn()
	}
	sp.End()
	sp.SetAttrs(trace.Int("reps", n))
}

// replaySetup records one set-up's layer calls: the dataset generation and
// KDV build every workload's set-up performs.
func (t *tracer) replaySetup(cfg serve.Config) {
	rt := t.begin(query{endpoint: "setup"})
	key := kdvKey{mapDataset, mapN, mapSeed}
	if t.b.workload == "dataset-churn" {
		key = kdvKey{cfg.WarmDataset, cfg.DefaultN, 1}
		if key.dataset == "" {
			key.dataset = "crime"
		}
	}
	replayBuild(rt, key)
	t.finish(rt)
}

// replayBuild replays a KDV-cache miss: generate the dataset and build.
func replayBuild(rt *traceRoot, key kdvKey) *quad.KDV {
	var pts geom.Points
	var err error
	span(rt, "dataset.generate", func() {
		pts, err = dataset.Generate(key.dataset, key.n, key.seed)
		pts = dataset.First2D(pts)
	})
	if err != nil {
		return nil
	}
	var k *quad.KDV
	span(rt, "quad.new", func() {
		k, _ = quad.New(pts.Coords, pts.Dim, quad.WithKernel(quad.Gaussian), quad.WithMethod(quad.MethodQuadratic))
	})
	return k
}

// replay re-issues q through the layers behind the reply r.
func (t *tracer) replay(ctx context.Context, rt *traceRoot, q query, r reply, h *harness) {
	defer t.finish(rt)
	rt.tr.Add("http", rt.root, r.iv.at, r.iv.at.Add(r.iv.raw),
		trace.Int("status", r.status), trace.Float64("corr_ms", ms(r.iv.corr)))
	plain := context.Background()
	k, err := t.b.chk.kdv(q)
	if err != nil {
		return
	}
	switch q.endpoint {
	case epRender:
		if h.slow != nil && h.slow.outcome(r.header.Get("X-Request-ID")) == "miss" {
			if fresh := replayBuild(rt, q.key()); fresh != nil {
				k = fresh
			}
		}
		var dm *quad.DensityMap
		var st quad.RenderStats
		sp := span(rt, "quad.render", func() { dm, st, err = k.RenderEpsStatsInCtx(plain, q.res, q.eps, q.win) })
		if err != nil {
			return
		}
		setStats(sp, st)
		v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
		var img image.Image
		t.batched(rt, "render.colormap", func() { img = render.Heatmap(v, render.Log) })
		var buf bytes.Buffer
		t.batched(rt, "render.encode", func() {
			buf.Reset()
			_ = render.EncodePNG(&buf, img)
		})
		t.oracle(rt, k, dm.Res, dm.WindowMin, dm.WindowMax)
	case epTiles:
		t.replayTile(rt, k, q, r)
	}
}

// setStats records a replayed render's shared-frontier time on its span.
func setStats(sp *trace.Span, st quad.RenderStats) {
	sp.SetAttrs(trace.DurMs("shared_ms", st.SharedElapsed))
}

// oraclePixels is how many pixels the audit replay recomputes exactly,
// the auditor's default per audited render.
const oraclePixels = 8

// oracle replays the auditor's exact re-evaluation on every fourth traced
// request: oraclePixels calls of (*KDV).Density over the request's grid.
func (t *tracer) oracle(rt *traceRoot, k *quad.KDV, res quad.Resolution, mn, mx [2]float64) {
	t.mu.Lock()
	t.nth++
	skip := t.nth%4 != 0
	t.mu.Unlock()
	if skip {
		return
	}
	g, err := grid.New(grid.Resolution{W: res.W, H: res.H}, geom.Rect{Min: mn[:], Max: mx[:]})
	if err != nil {
		return
	}
	q := make([]float64, 2)
	sp := span(rt, "audit.oracle", func() {
		for i := 0; i < oraclePixels; i++ {
			g.Query((i*7919)%res.W, (i*104729)%res.H, q)
			_, _ = k.Density(q)
		}
	})
	sp.SetAttrs(trace.Int("pixels", oraclePixels))
}

// tileReplay is the traced run's own tile pyramid over a benchmark-owned
// store: builds and memory lookups go through pyr (large LRU), disk
// lookups through disk (one-entry LRU over the same store), and store
// writes are replayed into a second store.
type tileReplay struct {
	pyr, disk *tiles.Pyramid
	store     *tiles.Store
	puts      *tiles.Store
}

func (t *tracer) tileReplayFor(k *quad.KDV, q query) (*tileReplay, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tiles != nil {
		return t.tiles, nil
	}
	dirA, err := t.b.dirFor("replay-store")
	if err != nil {
		return nil, err
	}
	dirB, err := t.b.dirFor("replay-puts")
	if err != nil {
		return nil, err
	}
	tr := &tileReplay{store: tiles.OpenStore(dirA, nil), puts: tiles.OpenStore(dirB, nil)}
	mk := func(lru int64) (*tiles.Pyramid, error) {
		return tiles.NewPyramid(context.Background(), tiles.PyramidConfig{
			Tileset: "replay", KDV: k, Eps: q.eps, TileSize: q.tileSize, LogScale: true,
			Store: tr.store, LRU: tiles.NewLRU(lru, nil),
		})
	}
	if tr.pyr, err = mk(1 << 30); err != nil {
		return nil, err
	}
	if tr.disk, err = mk(1); err != nil {
		return nil, err
	}
	t.tiles = tr
	return tr, nil
}

func (t *tracer) replayTile(rt *traceRoot, k *quad.KDV, q query, r reply) {
	tr, err := t.tileReplayFor(k, q)
	if err != nil {
		return
	}
	plain := context.Background()
	c := q.tile
	switch r.header.Get("X-KDV-Tile-Source") {
	case "build", "coalesced":
		full, sub := c.PixelRect(q.tileSize)
		var dm *quad.DensityMap
		var st quad.RenderStats
		sp := span(rt, "quad.render", func() {
			dm, st, err = k.RenderEpsSubStatsInCtx(plain, full, q.eps, quad.Window{}, sub)
		})
		if err != nil {
			return
		}
		setStats(sp, st)
		lo, hi := tr.pyr.ScaleBounds()
		v := &grid.Values{Res: grid.Resolution{W: dm.Res.W, H: dm.Res.H}, Data: dm.Values}
		var img image.Image
		t.batched(rt, "render.colormap", func() { img = render.HeatmapFixed(v, lo, hi, render.Log) })
		var buf bytes.Buffer
		t.batched(rt, "render.encode", func() {
			buf.Reset()
			_ = render.EncodePNG(&buf, img)
		})
		png := buf.Bytes()
		t.batched(rt, "tiles.store.put", func() { _ = tr.puts.Put("replay", c, png) })
		t.oracle(rt, k, dm.Res, dm.WindowMin, dm.WindowMax)
		// A coalesced request's tile may already be in the replay store,
		// and a lookup must not pass for a build.
		if _, stored := tr.store.Get("replay", c); !stored {
			span(rt, "tiles.build", func() { _, _, _ = tr.pyr.Tile(plain, c) })
		}
	case "memory":
		_, _, _ = tr.pyr.Tile(plain, c) // make sure the replay pyramid holds it
		t.batched(rt, "tiles.lookup.memory", func() { _, _, _ = tr.pyr.Tile(plain, c) })
	case "disk":
		_, _, _ = tr.pyr.Tile(plain, c) // make sure the replay store holds it
		t.batched(rt, "tiles.store.get", func() { _, _ = tr.store.Get("replay", c) })
		// Alternate with another stored tile so the one-entry LRU never
		// answers: every lookup in the batch reads the disk log.
		other := tiles.Coord{}
		if c == other {
			other = tiles.Coord{Z: 1}
			_, _, _ = tr.pyr.Tile(plain, other)
		}
		flip := false
		t.batched(rt, "tiles.lookup.disk", func() {
			flip = !flip
			if flip {
				_, _, _ = tr.disk.Tile(plain, c)
			} else {
				_, _, _ = tr.disk.Tile(plain, other)
			}
		})
	}
}

// close releases the replay stores.
func (t *tracer) close() {
	if t == nil || t.tiles == nil {
		return
	}
	t.tiles.store.Close()
	t.tiles.puts.Close()
}

// spans returns every recorded span.
func (t *tracer) spans() []*trace.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*trace.Span
	for _, tr := range t.traces {
		out = append(out, tr.Spans()...)
	}
	return out
}

// write saves the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, t.spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes groups the replayed calls by span name: per-call ms
// (batched spans divided by their reps) and batch ms (what was timed).
type layerTimes struct {
	perCall map[string][]float64
	batch   map[string][]float64
	attrs   map[string][]map[string]float64
	self    []float64 // per-request serve self time, ms
}

// residualExcluded are replayed spans that do not stand in for work the
// server did inside the HTTP call: the client call itself, the off-request
// audit oracle, and the two measurements that duplicate others (a whole
// tile build beside its parts, a raw store read beside the disk lookup).
var residualExcluded = map[string]bool{
	"http": true, "audit.oracle": true, "tiles.build": true, "tiles.store.get": true,
}

func (t *tracer) layers() layerTimes {
	lt := layerTimes{
		perCall: map[string][]float64{},
		batch:   map[string][]float64{},
		attrs:   map[string][]map[string]float64{},
	}
	t.mu.Lock()
	traces := append([]*trace.Trace(nil), t.traces...)
	t.mu.Unlock()
	for _, tr := range traces {
		spans := tr.Spans()
		if len(spans) == 0 {
			continue
		}
		root := spans[0]
		var httpMs, children float64
		hasHTTP := false
		for _, sp := range spans[1:] {
			d := ms(sp.Duration())
			reps := 1
			a := map[string]float64{}
			for _, at := range sp.Attrs() {
				if v, ok := at.Value().(float64); ok {
					a[at.Key] = v
				}
			}
			if r, ok := a["reps"]; ok && r >= 1 {
				reps = int(r)
			}
			lt.batch[sp.Name] = append(lt.batch[sp.Name], d)
			lt.perCall[sp.Name] = append(lt.perCall[sp.Name], d/float64(reps))
			lt.attrs[sp.Name] = append(lt.attrs[sp.Name], a)
			switch {
			case sp.Name == "http" && sp.Parent == root.ID:
				httpMs, hasHTTP = d, true
			case !residualExcluded[sp.Name]:
				children += d / float64(reps)
			}
		}
		if hasHTTP {
			lt.self = append(lt.self, httpMs-children)
		}
	}
	return lt
}

// p50 is a layer's median per-call time. The ten-beyond rule applies to
// the calls, the millisecond floor to the batches they were timed in.
func (lt layerTimes) p50(name string) (float64, error) {
	v, err := batchPercentile(lt.perCall[name], lt.batch[name], 0.5)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

// meanCall is the mean per-call time of a layer.
func (lt layerTimes) meanCall(name string) (float64, bool) {
	v := lt.perCall[name]
	return mean(v), len(v) > 0
}

// attrSum adds one attribute over a layer's spans.
func (lt layerTimes) attrSum(name, key string) float64 {
	s := 0.0
	for _, a := range lt.attrs[name] {
		s += a[key]
	}
	return s
}

// residualP50 is the median serve self time. A residual is a difference
// of two timings, not a timed sample, so only the ten-beyond rule applies.
func residualP50(xs []float64) (float64, error) {
	v, err := nearestRank(xs, 0.5)
	if err != nil {
		return 0, fmt.Errorf("serve self time: %w", err)
	}
	return v, nil
}
