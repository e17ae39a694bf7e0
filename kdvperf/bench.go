package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"github.com/quadkdv/quad/internal/serve"
)

// bench is one run: a workload, its seed and time budget, and everything
// the run accumulates across its set-ups and timed phases.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	workdir  string
	out      io.Writer // human-readable report lines
	busy     float64   // vCPUs the workload keeps busy (steal sharing)
	chk      *checker
	tr       *tracer // nil on untraced runs
	refMs    []float64

	mu          sync.Mutex
	attempted   int
	failed      int
	failures    []string
	checkErrs   []string
	setup       []float64 // seconds, one per set-up repetition
	lat         []sample  // the workload's latency class
	stolen      int       // latency-class replies left out as wholly stolen
	tputN       float64   // requests (or tiles) counted for throughput
	tputSec     float64   // steal-corrected seconds they took
	requests    int       // timed-phase requests
	untraced    int       // of which sent before tracing was armed
	respBytes   int64
	counts      scrape // program counter deltas over the timed phases
	steal       stealTicks
	cpu         time.Duration
	alloc       uint64
	gcCycles    uint32
	gcPause     time.Duration
	kept        []keptReply // seeded sample re-rendered after the run
	props       []string    // input properties
	rssMB       float64     // highest peak resident set of a timed phase
	pngBytes    int64       // bytes and pixels of the PNGs served 200
	pngPx       int64
	storeCounts scrape      // tile-session: counter deltas of the cold phase alone
	lt          *layerTimes // traced run: the replayed spans, grouped
}

// sample is one latency-class request.
type sample struct {
	corrMs, rawMs float64
	traced        bool
	work          float64 // engine work units, from X-KDV-Stats-* (0 if absent)
}

type keptReply struct {
	q query
	r reply
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// fail counts a failed or refused request.
func (b *bench) fail(q query, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", q.path(), err))
	}
}

func (b *bench) checkFailed(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.checkErrs) < 5 {
		b.checkErrs = append(b.checkErrs, err.Error())
	}
}

// record counts one timed-phase request.
func (b *bench) record(r reply) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	b.requests++
	if !b.tr.armed() {
		b.untraced++
	}
	b.respBytes += int64(len(r.body))
}

// stolenShare is the share of a reply's wall time above which its steal
// reading leaves no measurement of the program. The counter ticks every
// 10 ms and a read can flush steal from just before the request, so a short
// request can read as much steal as it lasted.
const stolenShare = 0.75

// latency adds a latency-class sample, unless its interval read as almost
// wholly stolen; those are counted instead.
func (b *bench) latency(r reply, traced bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.iv.corr < time.Duration((1-stolenShare)*float64(r.iv.raw)) {
		b.stolen++
		return
	}
	b.lat = append(b.lat, sample{
		corrMs: ms(r.iv.corr), rawMs: ms(r.iv.raw), traced: traced, work: workUnits(r),
	})
}

func (b *bench) latencyCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.lat)
}

// keep stores a reply for the post-run library re-render.
func (b *bench) keep(q query, r reply) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.kept = append(b.kept, keptReply{q, r})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workUnits is the engine work one render reports in its X-KDV-Stats-*
// headers: per-pixel node evaluations plus shared tile evaluations.
func workUnits(r reply) float64 {
	n, _ := strconv.ParseFloat(r.header.Get("X-KDV-Stats-Node-Evals"), 64)
	s, _ := strconv.ParseFloat(r.header.Get("X-KDV-Stats-Shared-Evals"), 64)
	return n + s
}

// settle waits until no audit is pending, then times the reference
// kernel: the only moments the run times it are idle ones.
func (b *bench) settle(ctx context.Context, h *harness) error {
	deadline := time.Now().Add(10 * time.Second)
	for h.srv.Auditor().Pending() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("audit queue did not drain within 10s")
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	ref := newRefKernel()
	for i := 0; i < 3; i++ {
		b.refMs = append(b.refMs, ref.run())
	}
	return nil
}

// phase brackets one timed phase on one server: counters, steal, CPU and
// allocation are differenced across it, and its peak resident set is read
// at its end.
type phase struct {
	b      *bench
	h      *harness
	before scrape
	steal  stealTicks
	cpu    time.Duration
	mem    runtime.MemStats
	start  time.Time
	armed  bool
	nreq   int // b.requests at the start
}

func (b *bench) begin(ctx context.Context, h *harness) (*phase, error) {
	if err := b.settle(ctx, h); err != nil {
		return nil, err
	}
	// The phase's peak resident set starts from the program's live data:
	// what set-up and the reference kernel left behind goes back to the OS
	// first.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before, err := h.scrape(ctx)
	if err != nil {
		return nil, err
	}
	p := &phase{b: b, h: h, before: before}
	if p.steal, err = readSteal(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&p.mem)
	p.cpu = processCPU()
	p.nreq = b.requests
	p.start = time.Now()
	return p, nil
}

// processFigures adds the process's CPU, allocation and GC since the phase
// began to the run's untraced totals.
func (p *phase) processFigures() {
	cpu := processCPU()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b := p.b
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cpu += cpu - p.cpu
	b.alloc += mem.TotalAlloc - p.mem.TotalAlloc
	b.gcCycles += mem.NumGC - p.mem.NumGC
	b.gcPause += time.Duration(mem.PauseTotalNs - p.mem.PauseTotalNs)
}

// arm switches a traced run's phase from untraced to traced traffic; the
// process figures so far count as the untraced share. It is a no-op on an
// untraced run and after the first call.
func (p *phase) arm() {
	if p.b.tr == nil || p.armed {
		return
	}
	p.armed = true
	p.processFigures()
	p.b.tr.on.Store(true)
}

// tput adds the phase's requests and steal-corrected duration so far to
// the run's throughput.
func (p *phase) tput() {
	d := p.elapsed()
	b := p.b
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tputN += float64(b.requests - p.nreq)
	b.tputSec += d.Seconds()
}

// elapsed is the phase's steal-corrected wall time so far.
func (p *phase) elapsed() time.Duration {
	st, _ := readSteal()
	var ticks uint64
	if st.total > p.steal.total {
		ticks = st.total - p.steal.total
	}
	d := time.Since(p.start) - time.Duration(stealSeconds(ticks)/p.b.busy*float64(time.Second))
	return max(d, 0)
}

// end closes the phase: peak resident set and process figures first
// (before the reference kernel and any scrape), then the counters once the
// audit queue has drained.
func (p *phase) end(ctx context.Context) error {
	b := p.b
	st, err := readSteal()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if !p.armed {
		p.processFigures()
	}
	if err := b.settle(ctx, p.h); err != nil {
		return err
	}
	after, err := p.h.scrape(ctx)
	if err != nil {
		return err
	}
	if v := p.h.srv.Auditor().ViolationCount(); v != 0 {
		b.checkFailed(fmt.Errorf("the shadow auditor has recorded %d violations on this server", v))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rssMB = max(b.rssMB, rss)
	b.steal.total += st.total - p.steal.total
	for i := range st.per {
		if i >= len(b.steal.per) {
			b.steal.per = append(b.steal.per, 0)
		}
		if i < len(p.steal.per) {
			b.steal.per[i] += st.per[i] - p.steal.per[i]
		}
	}
	if b.counts == nil {
		b.counts = scrape{}
	}
	b.counts.add(after.minus(p.before))
	return nil
}

// closedLoop runs clients that each send their next request only after the
// previous one completed. It stops once budget has passed and enough()
// holds, at the hard cap, or when step reports the input exhausted.
func closedLoop(ctx context.Context, clients int, budget time.Duration, enough func() bool, step func(client int) bool) {
	start := time.Now()
	hardCap := budget * 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				el := time.Since(start)
				if el >= hardCap || (el >= budget && enough()) {
					return
				}
				if !step(c) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sequence hands out a seeded input stream to concurrent clients in order.
// Each query is generated when it is taken, so the run holds no pre-built
// path while the program is measured; the sequence keeps only counts of
// what it handed out.
type sequence struct {
	mu       sync.Mutex
	gen      func() query
	limit    int // queries to hand out; 0: no limit
	sent     int
	revisits int
	pairs    int // queries sent twice at once
	keys     map[kdvKey]bool
}

func (s *sequence) next() (query, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit > 0 && s.sent >= s.limit {
		return query{}, 0, false
	}
	q := s.gen()
	if q.revisit {
		s.revisits++
	}
	if q.twice {
		s.pairs++
	}
	if s.keys == nil {
		s.keys = make(map[kdvKey]bool)
	}
	s.keys[q.key()] = true
	s.sent++
	return q, s.sent - 1, true
}

// A run repeats its set-up at least minSetupReps times and until the
// repetitions add up to setupTarget, at most maxSetupReps times; setup_s
// is the median.
const (
	minSetupReps = 5
	maxSetupReps = 21
	setupTarget  = 2 * time.Second
)

// timeSetup boots servers repeatedly and times each from server start to
// the first good response of firstGood. The last server is returned
// running for the timed phase; the others are shut down.
func (b *bench) timeSetup(ctx context.Context, cfg func(rep int) serve.Config, conns int, slow bool,
	firstGood func(ctx context.Context, h *harness) error) (*harness, error) {
	clk := clock{busy: 1}
	var total time.Duration
	for rep := 0; rep < maxSetupReps; rep++ {
		runtime.GC()
		debug.FreeOSMemory()
		var sl *slowLog
		if slow {
			sl = newSlowLog()
		}
		c := cfg(rep)
		s := clk.start()
		h, err := boot(c, conns, sl)
		if err != nil {
			return nil, err
		}
		if err := firstGood(ctx, h); err != nil {
			h.close()
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		iv := clk.stop(s)
		b.setup = append(b.setup, iv.corr.Seconds())
		total += iv.corr
		if b.tr != nil {
			b.tr.replaySetup(c)
		}
		if rep == maxSetupReps-1 || (rep+1 >= minSetupReps && total >= setupTarget) {
			return h, nil
		}
		if err := h.close(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("no set-up repetitions")
}

// dirFor returns a fresh directory under the run's work directory.
func (b *bench) dirFor(name string) (string, error) {
	d := fmt.Sprintf("%s/%s-%d-%s", b.workdir, b.workload, os.Getpid(), name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// workShares reports how the latency-class samples spread in engine work
// around their median — the evidence that a percentile covers one cost
// class.
func workShares(lat []sample) (lo, mid, hi float64, ok bool) {
	var ws []float64
	for _, s := range lat {
		if s.work > 0 {
			ws = append(ws, s.work)
		}
	}
	if len(ws) == 0 {
		return 0, 0, 0, false
	}
	m := median(ws)
	for _, w := range ws {
		switch {
		case w < m/2:
			lo++
		case w > 2*m:
			hi++
		default:
			mid++
		}
	}
	n := float64(len(ws))
	return lo / n, mid / n, hi / n, true
}

// spread returns p90/p10 of xs — how far apart the cheap and dear ends of
// a latency class lie.
func spread(xs []float64) float64 {
	if len(xs) < 10 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[len(s)*9/10] / s[len(s)/10]
}
