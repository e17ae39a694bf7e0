package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/serve"
	"github.com/quadkdv/quad/internal/tiles"
)

// workloads are the benchmark's closed-loop traffic mixes.
var workloads = map[string]struct {
	clients int // requests usually in flight at once, so vCPUs kept busy
	run     func(b *bench, ctx context.Context) error
}{
	"pan-zoom":      {1, (*bench).panZoom},
	"tile-session":  {2, (*bench).tileSession},
	"dataset-churn": {1, (*bench).datasetChurn},
}

// The served analogue: the crime dataset at a fixed generator seed, so
// only the request path varies with the run's seed.
const (
	mapDataset = "crime"
	mapN       = 20000
	mapSeed    = 1
)

// baseConfig is the serving configuration every workload starts from:
// production defaults, no request deadline (no degraded output), and the
// audit sampling stream fixed so single-client runs repeat exactly.
func baseConfig() serve.Config {
	return serve.Config{
		DefaultN:      mapN,
		AuditFraction: 0.05,
		AuditSeed:     20200614,
	}
}

// dataPoints returns the served analogue's coordinates (x0, y0, x1, ...),
// which the path generators aim at.
func dataPoints() ([]float64, error) {
	pts, err := dataset.Generate(mapDataset, mapN, mapSeed)
	if err != nil {
		return nil, err
	}
	return dataset.First2D(pts).Coords, nil
}

// mapWindow is the served analogue's default window. The KDV it is read
// from is not kept, so no benchmark-owned copy of the program's KDV is
// resident while the program is measured.
func mapWindow() (quad.Window, error) {
	k, err := buildKDV(kdvKey{mapDataset, mapN, mapSeed}, pzEps)
	if err != nil {
		return quad.Window{}, err
	}
	return k.DefaultWindow()
}

// send issues q and counts it as attempted; a transport error counts as
// failed.
func (b *bench) send(ctx context.Context, h *harness, q query, hdr http.Header, clk clock) (reply, bool) {
	r, err := h.get(ctx, q.path(), hdr, clk)
	if err != nil {
		b.mu.Lock()
		b.attempted++
		b.mu.Unlock()
		b.fail(q, err)
		return r, false
	}
	b.record(r)
	return r, true
}

// doQuery sends q and checks the response: a PNG of the requested size,
// and a complete raster for /render. It reports whether the reply passed.
func (b *bench) doQuery(ctx context.Context, h *harness, q query, clk clock) (reply, bool) {
	r, ok := b.send(ctx, h, q, nil, clk)
	if !ok {
		return r, false
	}
	w, ht := q.size()
	if err := checkPNG(r, w, ht); err != nil {
		b.fail(q, err)
		return r, false
	}
	if q.endpoint == epRender && r.header.Get("X-KDV-Complete") != "true" {
		b.fail(q, fmt.Errorf("X-KDV-Complete %q", r.header.Get("X-KDV-Complete")))
		return r, false
	}
	b.mu.Lock()
	b.pngBytes += int64(len(r.body))
	b.pngPx += int64(w * ht)
	b.mu.Unlock()
	return r, true
}

// firstGood returns a set-up end point: one request that must succeed.
func (b *bench) firstGood(q query) func(ctx context.Context, h *harness) error {
	return func(ctx context.Context, h *harness) error {
		r, err := h.get(ctx, q.path(), nil, clock{})
		if err != nil {
			return err
		}
		w, ht := q.size()
		return checkPNG(r, w, ht)
	}
}

// Pan-zoom: εKDV renders at a fixed raster and ε along a seeded pan/zoom
// path.
const (
	pzRes     = 48
	pzEps     = 0.05
	pzRevisit = 0.15
)

// mapStrata is how many spatial strata the pan-zoom and tile paths take
// their targets from: few enough that one run visits every stratum
// several times, so runs of any seed see about the same mix of regions.
const mapStrata = 8

// stratum is one compact region of the map holding an equal share of the
// data; (x, y) is its middle point along the Z-order curve.
type stratum struct{ x, y float64 }

// strata splits the data points into n groups of equal size along a
// Z-order curve, so each group is one compact region of the map and the
// groups together weight the map by data density.
func strata(win quad.Window, xy []float64, n int) []stratum {
	idx := make([]int, len(xy)/2)
	keys := make([]uint64, len(idx))
	for i := range idx {
		idx[i] = i
		qx := uint64((xy[2*i] - win.MinX) / (win.MaxX - win.MinX) * 65535)
		qy := uint64((xy[2*i+1] - win.MinY) / (win.MaxY - win.MinY) * 65535)
		var k uint64
		for bit := 0; bit < 16; bit++ {
			k |= (qx>>bit&1)<<(2*bit) | (qy>>bit&1)<<(2*bit+1)
		}
		keys[i] = k
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]stratum, n)
	for s := range out {
		mid := idx[(2*s+1)*len(idx)/(2*n)]
		out[s] = stratum{xy[2*mid], xy[2*mid+1]}
	}
	return out
}

// panZoomPath walks a seeded path over the window, one step per call. Zoom
// follows a fixed 1×, 2×, 4×, 8×, 16×, 8×, 4×, 2× cycle; each cycle flies
// to the middle of one of the mapStrata data strata, jittered by up to 1/64
// of the map, while the view is whole (so the jump still overlaps the last
// view), and then drifts by at most a quarter view per step. Strata come in
// seeded order, every stratum once per round, so runs of any seed see the
// same mix of map regions. A pzRevisit share of steps re-requests one of
// the last eight views.
func panZoomPath(seed int64, win quad.Window, xy []float64) func() query {
	rng := rand.New(rand.NewSource(seed))
	groups := strata(win, xy, mapStrata)
	var order []int
	w, h := win.MaxX-win.MinX, win.MaxY-win.MinY
	var cx, cy float64
	var views []quad.Window // the last eight
	step := 0
	return func() query {
		q := query{endpoint: epRender, dataset: mapDataset, n: mapN, dseed: mapSeed,
			eps: pzEps, res: quad.Resolution{W: pzRes, H: pzRes}}
		if len(views) > 2 && rng.Float64() < pzRevisit {
			back := 2 + rng.Intn(len(views)-1)
			q.win, q.revisit = views[len(views)-back], true
			return q
		}
		level := step % 8
		if level > 4 {
			level = 8 - level
		}
		step++
		zoom := float64(int(1) << level)
		vw, vh := w/zoom, h/zoom
		if level == 0 {
			if len(order) == 0 {
				order = rng.Perm(len(groups))
			}
			cx, cy = groups[order[0]].x, groups[order[0]].y
			order = order[1:]
			cx += (rng.Float64() - 0.5) * w / 32
			cy += (rng.Float64() - 0.5) * h / 32
		} else {
			cx += (rng.Float64() - 0.5) * vw / 2
			cy += (rng.Float64() - 0.5) * vh / 2
		}
		minX := math.Max(win.MinX, math.Min(cx-vw/2, win.MaxX-vw))
		minY := math.Max(win.MinY, math.Min(cy-vh/2, win.MaxY-vh))
		q.win = quad.Window{MinX: minX, MinY: minY, MaxX: minX + vw, MaxY: minY + vh}
		views = append(views, q.win)
		if len(views) > 8 {
			views = views[1:]
		}
		return q
	}
}

func (b *bench) panZoom(ctx context.Context) error {
	win, err := mapWindow()
	if err != nil {
		return err
	}
	xy, err := dataPoints()
	if err != nil {
		return err
	}
	seq := &sequence{gen: panZoomPath(b.seed, win, xy)}
	full := query{endpoint: epRender, dataset: mapDataset, n: mapN, dseed: mapSeed,
		eps: pzEps, res: quad.Resolution{W: pzRes, H: pzRes}}
	h, err := b.timeSetup(ctx, func(int) serve.Config { return baseConfig() }, 1, false, b.firstGood(full))
	if err != nil {
		return err
	}
	defer h.close()
	if err := b.closedPhase(ctx, h, 1, seq, b.budget(1), func(query, reply) bool { return true }); err != nil {
		return err
	}
	b.props = append(b.props, fmt.Sprintf("revisit share %.3f of %d steps (target %.2f); zoom 1-16x; raster %dx%d; eps %g",
		float64(seq.revisits)/float64(max(1, seq.sent)), seq.sent, pzRevisit, pzRes, pzRes, pzEps))
	return nil
}

// budget is the timed share of the run's seconds.
func (b *bench) budget(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// minLatencySamples is the latency class size every run reaches: enough
// for ten samples beyond p90.
const minLatencySamples = 120

// closedPhase runs a whole-request closed loop over seq as one timed phase
// on h. inClass says whether a good reply joins the latency class; every
// reply counts toward throughput.
func (b *bench) closedPhase(ctx context.Context, h *harness, clients int, seq *sequence, budget time.Duration,
	inClass func(q query, r reply) bool) error {
	clk := clock{busy: b.busy}
	p, err := b.begin(ctx, h)
	if err != nil {
		return err
	}
	armAt := budget * 2 / 5
	var armOnce sync.Once
	enough := func() bool { return b.latencyCount() >= minLatencySamples }
	closedLoop(ctx, clients, budget, enough, func(int) bool {
		if b.tr != nil && time.Since(p.start) >= armAt {
			armOnce.Do(p.arm)
		}
		q, i, ok := seq.next()
		if !ok {
			return false
		}
		if !q.twice {
			b.exchange(ctx, h, q, i, clk, inClass)
			return true
		}
		// The same request on the second connection at once: when its key
		// is cold, one of the two waits on the other's build.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.exchange(ctx, h, q, i, clk, inClass)
		}()
		b.exchange(ctx, h, q, i, clk, inClass)
		wg.Wait()
		return true
	})
	p.tput()
	return p.end(ctx)
}

// exchange sends the i-th query of a closed loop and files its reply: the
// latency class, the checker's sample and, on a traced run, the replay.
func (b *bench) exchange(ctx context.Context, h *harness, q query, i int, clk clock, inClass func(q query, r reply) bool) {
	traced := b.tr.armed()
	var root *traceRoot
	if traced {
		root = b.tr.begin(q)
	}
	r, good := b.doQuery(ctx, h, q, clk)
	if !good {
		return
	}
	if inClass(q, r) {
		b.latency(r, traced)
	}
	if b.chooseKept(i) {
		b.keep(q, r)
	}
	if traced {
		b.tr.replay(ctx, root, q, r, h)
	}
}

// chooseKept picks the seeded sample of requests the run re-renders
// through the library afterwards: every 17th of the first 100, from a
// seeded offset.
func (b *bench) chooseKept(i int) bool { return i < 100 && ((int64(i)+b.seed)%17+17)%17 == 0 }

// Tile-session: one user browsing k×k viewports of 64-pixel tiles.
const (
	tsTileSize = 64
	tsEps      = 0.05
	tsView     = 3 // viewport edge in tiles
	tsMinZoom  = 2
	tsMaxZoom  = 6
	tsRevisit  = 0.12
	tsLRUBytes = 96 << 10 // far below the session's tile bytes
)

// viewport is one screenful of tiles.
type viewport struct {
	tiles   []tiles.Coord
	revisit bool
}

// tilePath walks a seeded slippy-map session, one viewport per call: pan
// one tile toward the jittered middle of a data stratum (strata in seeded
// order, as in panZoomPath), zoom in on it once it is in view, zoom out and
// take the next stratum at the deepest zoom; a tsRevisit share of steps
// jumps back to one of the last ten viewports.
func tilePath(seed int64, win quad.Window, xy []float64) func() viewport {
	rng := rand.New(rand.NewSource(seed))
	tileOf := func(x, y float64, z int) (int, int) {
		n := float64(int(1) << z)
		tx := int((x - win.MinX) / (win.MaxX - win.MinX) * n)
		ty := int((win.MaxY - y) / (win.MaxY - win.MinY) * n)
		hi := int(n) - 1
		return max(0, min(hi, tx)), max(0, min(hi, ty))
	}
	groups := strata(win, xy, mapStrata)
	var order []int
	target := func() (float64, float64) {
		if len(order) == 0 {
			order = rng.Perm(len(groups))
		}
		g := groups[order[0]]
		order = order[1:]
		return g.x + (rng.Float64()-0.5)*(win.MaxX-win.MinX)/32, g.y + (rng.Float64()-0.5)*(win.MaxY-win.MinY)/32
	}
	z := tsMinZoom + 1
	px, py := target()
	ox, oy := tileOf(px, py, z)
	ox, oy = ox-1, oy-1
	var recent []viewport // the last ten
	emit := func(v viewport) viewport {
		recent = append(recent, v)
		if len(recent) > 10 {
			recent = recent[1:]
		}
		return v
	}
	return func() viewport {
		if len(recent) > 2 && rng.Float64() < tsRevisit {
			back := 2 + rng.Intn(len(recent)-1)
			return emit(viewport{tiles: recent[len(recent)-back].tiles, revisit: true})
		}
		tx, ty := tileOf(px, py, z)
		switch {
		case tx < ox || tx >= ox+tsView || ty < oy || ty >= oy+tsView:
			ox += sign(tx - (ox + 1))
			oy += sign(ty - (oy + 1))
		case z < tsMaxZoom:
			z++
			tx, ty = tileOf(px, py, z)
			ox, oy = tx-1, ty-1
		default:
			z--
			px, py = target()
			ox, oy = ox/2, oy/2
		}
		n := 1 << z
		ox = max(0, min(n-tsView, ox))
		oy = max(0, min(n-tsView, oy))
		v := viewport{}
		for y := oy; y < oy+tsView; y++ {
			for x := ox; x < ox+tsView; x++ {
				v.tiles = append(v.tiles, tiles.Coord{Z: z, X: x, Y: y})
			}
		}
		return emit(v)
	}
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func tileQuery(c tiles.Coord) query {
	return query{endpoint: epTiles, dataset: mapDataset, n: mapN, dseed: mapSeed,
		eps: tsEps, tile: c, tileSize: tsTileSize}
}

// The tile session's phases take these shares of the run's seconds. The
// cold phase passes its minLatencySamples builds early but runs on, so its
// builds come from more than two rounds of the strata and their median
// does not hang on which strata a seed visits last; the warm phases count
// over a hundred thousand tiles.
const (
	tsColdShare    = 0.5
	tsRestartShare = 0.3
	tsRevalShare   = 0.2
)

func (b *bench) tileSession(ctx context.Context) error {
	win, err := mapWindow()
	if err != nil {
		return err
	}
	xy, err := dataPoints()
	if err != nil {
		return err
	}
	path := tilePath(b.seed, win, xy)
	var dir string
	var dirErr error
	cfg := func(rep int) serve.Config {
		// Each set-up starts from an empty tile store; the last one's
		// store is the session's.
		c := baseConfig()
		c.TileSize = tsTileSize
		c.TileMemoryBytes = tsLRUBytes
		dir, dirErr = b.dirFor(fmt.Sprintf("tiles%d", rep))
		c.TilesDir = dir
		return c
	}
	h, err := b.timeSetup(ctx, cfg, 2, false, b.firstGood(tileQuery(tiles.Coord{})))
	if err != nil {
		return err
	}
	if dirErr != nil {
		h.close()
		return fmt.Errorf("tile directory: %w", dirErr)
	}

	// Cold: builds plus revisits, against a tile LRU far smaller than the
	// session's tiles.
	s := &tileRun{b: b, etags: make(map[tiles.Coord]string)}
	visited, err := s.phase(ctx, h, path, b.budget(tsColdShare), true, false)
	cerr := h.close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	sessionBytes := s.distinctBytes
	b.storeCounts = scrape{}
	b.storeCounts.add(b.counts)

	// Restart: a new server on the same tile directory serves from disk.
	c := baseConfig()
	c.TileSize, c.TileMemoryBytes, c.TilesDir = tsTileSize, tsLRUBytes, dir
	h, err = boot(c, 2, nil)
	if err != nil {
		return err
	}
	defer h.close()
	if err := b.firstGood(tileQuery(tiles.Coord{}))(ctx, h); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if _, err := s.phase(ctx, h, cycle(visited), b.budget(tsRestartShare), false, false); err != nil {
		return err
	}
	// Revalidate: the same viewports with If-None-Match, answered 304.
	if _, err := s.phase(ctx, h, cycle(visited), b.budget(tsRevalShare), false, true); err != nil {
		return err
	}
	if err := b.chk.tierConflicts(); err != nil {
		b.checkFailed(err)
	}
	revisits := 0
	for _, v := range visited {
		if v.revisit {
			revisits++
		}
	}
	b.props = append(b.props,
		fmt.Sprintf("session: %d viewports of %dx%d tiles (%d px), revisit share %.3f; %d distinct tiles, %d bytes of PNG against a %d-byte tile LRU (%.1fx)",
			len(visited), tsView, tsView, tsTileSize, float64(revisits)/float64(max(1, len(visited))),
			len(s.etags), sessionBytes, tsLRUBytes, float64(sessionBytes)/tsLRUBytes),
		fmt.Sprintf("warm phases: %d tiles from restart and revalidation", s.warmTiles))
	return nil
}

// tileRun is one tile session's state across its phases.
type tileRun struct {
	b             *bench
	mu            sync.Mutex
	etags         map[tiles.Coord]string
	distinctBytes int
	warmTiles     int
	builtSeen     int
}

// cycle hands out vs in order, over and over.
func cycle(vs []viewport) func() viewport {
	i := 0
	return func() viewport {
		i++
		return vs[(i-1)%len(vs)]
	}
}

// phase fetches viewports from next, each over two connections, until the
// budget is spent (cold: and the latency class is full). It returns the
// viewports it fetched. Cold builds join the latency class, timed one by
// one with steal corrected; warm phases count tiles per steal-corrected
// second of the phase, and their tiles are timed on the wall-only clock.
func (s *tileRun) phase(ctx context.Context, h *harness, next func() viewport, budget time.Duration, cold, revalidate bool) ([]viewport, error) {
	b := s.b
	clk := clock{}
	if cold {
		clk.busy = b.busy
	}
	p, err := b.begin(ctx, h)
	if err != nil {
		return nil, err
	}
	if !cold && b.tr != nil {
		p.arm()
	}
	armAt := budget * 2 / 5
	start := time.Now()
	var done []viewport
	var tilesN float64
	for ctx.Err() == nil {
		el := time.Since(start)
		if el >= 3*budget || (el >= budget && (!cold || b.latencyCount() >= minLatencySamples)) {
			break
		}
		if cold && b.tr != nil && el >= armAt {
			p.arm()
		}
		v := next()
		s.viewport(ctx, h, v, cold, revalidate, clk)
		tilesN += float64(len(v.tiles))
		done = append(done, v)
	}
	if !cold {
		// Warm tiles take well under a millisecond, less than one tick of
		// the steal counter, so the phase is corrected as a whole.
		warm := p.elapsed()
		b.mu.Lock()
		b.tputN += tilesN
		b.tputSec += warm.Seconds()
		b.mu.Unlock()
		s.warmTiles += int(tilesN)
	}
	return done, p.end(ctx)
}

// viewport fetches one viewport's tiles over two connections.
func (s *tileRun) viewport(ctx context.Context, h *harness, v viewport, cold, revalidate bool, clk clock) {
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(v.tiles) {
					mu.Unlock()
					return
				}
				tc := v.tiles[next]
				next++
				mu.Unlock()
				s.fetch(ctx, h, tileQuery(tc), cold, revalidate, clk)
			}
		}()
	}
	wg.Wait()
}

// fetch issues one tile request and checks it against its tier.
func (s *tileRun) fetch(ctx context.Context, h *harness, q query, cold, revalidate bool, clk clock) {
	b := s.b
	traced := b.tr.armed()
	var root *traceRoot
	if traced {
		root = b.tr.begin(q)
	}
	if revalidate {
		s.mu.Lock()
		etag := s.etags[q.tile]
		s.mu.Unlock()
		r, ok := b.send(ctx, h, q, http.Header{"If-None-Match": {etag}}, clk)
		if !ok {
			return
		}
		if err := checkNotModified(r, etag); err != nil {
			b.fail(q, err)
			return
		}
		if traced {
			b.tr.replay(ctx, root, q, r, h)
		}
		return
	}
	r, good := b.doQuery(ctx, h, q, clk)
	if !good {
		return
	}
	source := r.header.Get("X-KDV-Tile-Source")
	b.chk.tier(q, source, r)
	s.mu.Lock()
	if _, seen := s.etags[q.tile]; !seen {
		s.etags[q.tile] = r.header.Get("ETag")
		s.distinctBytes += len(r.body)
	}
	built := source == "build"
	keep := false
	if built {
		keep = b.chooseKept(s.builtSeen)
		s.builtSeen++
	}
	s.mu.Unlock()
	if cold && built {
		b.latency(r, traced)
	}
	if keep {
		b.keep(q, r)
	}
	if traced {
		b.tr.replay(ctx, root, q, r, h)
	}
}

// Dataset-churn: tiny renders over more (dataset, seed) keys than the KDV
// cache holds, from one client on two connections. Two clients kept both
// vCPUs busy, so their builds slowed with any neighbour on the host; one
// client keeps one vCPU busy, and its pairs still reach the singleflight
// path.
const (
	dcN      = 50000
	dcRes    = 16
	dcEps    = 0.1
	dcSeeds  = 4 // generator seeds per dataset
	dcCache  = 6 // KDV cache entries
	dcReuse  = 0.35
	dcPair   = 0.08
	dcRecent = 4
)

// churnKeys draws the request keys, one per call: a dcPair share is a
// uniform key sent on both connections at once (for a cold key, the
// singleflight path), a dcReuse share picks one of the last dcRecent
// distinct keys, the rest are uniform over all keys.
func churnKeys(seed int64) func() query {
	rng := rand.New(rand.NewSource(seed))
	var keys []kdvKey
	for _, name := range dataset.Names() {
		for j := 0; j < dcSeeds; j++ {
			keys = append(keys, kdvKey{name, dcN, seed*100 + int64(j) + 2})
		}
	}
	var recent []kdvKey
	return func() query {
		var k kdvKey
		reuse, pair := false, false
		r := rng.Float64()
		switch {
		case r < dcPair:
			k, pair = keys[rng.Intn(len(keys))], true
		case len(recent) > 0 && r < dcPair+dcReuse:
			k, reuse = recent[rng.Intn(len(recent))], true
		default:
			k = keys[rng.Intn(len(keys))]
		}
		found := false
		for _, rk := range recent {
			found = found || rk == k
		}
		if !found {
			recent = append(recent, k)
			if len(recent) > dcRecent {
				recent = recent[1:]
			}
		}
		return query{endpoint: epRender, dataset: k.dataset, n: k.n, dseed: k.seed,
			eps: dcEps, res: quad.Resolution{W: dcRes, H: dcRes}, revisit: reuse, twice: pair}
	}
}

func (b *bench) datasetChurn(ctx context.Context) error {
	seq := &sequence{gen: churnKeys(b.seed)}
	cfg := func(int) serve.Config {
		c := baseConfig()
		c.DefaultN = dcN
		c.CacheSize = dcCache
		return c
	}
	warm := func(ctx context.Context, h *harness) error {
		if err := h.srv.Warmup(ctx); err != nil {
			return err
		}
		if !h.srv.Ready() {
			return fmt.Errorf("warmup returned but the server is not ready")
		}
		return nil
	}
	h, err := b.timeSetup(ctx, cfg, 2, true, warm)
	if err != nil {
		return err
	}
	defer h.close()
	built := func(q query, r reply) bool {
		return h.slow.outcome(r.header.Get("X-Request-ID")) == "miss"
	}
	if err := b.closedPhase(ctx, h, 1, seq, b.budget(1), built); err != nil {
		return err
	}
	b.props = append(b.props, fmt.Sprintf("%d distinct (dataset, seed) keys at n=%d against a %d-entry KDV cache; of %d draws, reuse share %.3f (one of the last %d keys), pair share %.3f (sent twice at once); raster %dx%d",
		len(seq.keys), dcN, dcCache, seq.sent, float64(seq.revisits)/float64(max(1, seq.sent)), dcRecent,
		float64(seq.pairs)/float64(max(1, seq.sent)), dcRes, dcRes))
	return nil
}
