package quad_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/classify"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/stats"
)

// The behaviour ledger pins the engine's output bits across versions: one
// line per cell, holding the sha256 of the cell's outputs (a raster's
// Float64bits, a τ mask, or per-query results) and every deterministic
// RenderStats counter. Elapsed, SharedElapsed and Workers are left out:
// they are the only fields that vary with timing or the worker count.
//
// A change that claims bit-identity changes no line; a change that changes
// a line says which and why. Regenerate after an intended change with
//
//	go test -run '^TestLedger$' -update .
//
// The golden file pins amd64 bits. Every exponential behind a raster goes
// through kernel.Exp1, so the lines hold on amd64 hosts with and without
// FMA (TestLedgerHostIndependent). Other architectures are unverified: their
// compilers may fuse multiply-adds, so the test skips there.
var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden")

const ledgerPath = "testdata/ledger.golden"

// ledgerVariants are the configurations every render cell must agree
// across: its line may not depend on the worker count.
var ledgerVariants = []struct {
	name string
	opts []quad.Option
}{
	{"workers=1", []quad.Option{quad.WithWorkers(1)}},
	{"workers=4", []quad.Option{quad.WithWorkers(4)}},
}

// TestLedger recomputes every ledger cell and compares it with the golden
// file.
func TestLedger(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the ledger pins amd64 bits; %s is unverified", runtime.GOARCH)
	}
	got := ledgerLines(t)
	if t.Failed() {
		return
	}
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("read ledger (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if diffs := diffLedger(got, want); len(diffs) > 0 {
		t.Fatalf("%d ledger cells differ from %s (intended? rerun with -update and name the lines in CHANGES.md):\n%s",
			len(diffs), ledgerPath, strings.Join(diffs, "\n"))
	}
}

// TestLedgerHostIndependent re-runs TestLedger in a child process with the
// FMA code path of math.Exp switched off. With TestLedger passing here, the
// ledger holds on amd64 hosts with and without FMA; a new exponential that
// dispatches on the CPU fails one of the two.
func TestLedgerHostIndependent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("cpu.fma is an amd64 GODEBUG setting; %s is unverified", runtime.GOARCH)
	}
	if *updateLedger {
		t.Skip("the ledger is being rewritten")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestLedger$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestLedger ")) {
		t.Fatalf("TestLedger under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// TestLedgerComparator is the ledger's mutation self-test: a one-ulp change
// to one pixel and a one-count change to one counter must each fail exactly
// the cell they touch.
func TestLedgerComparator(t *testing.T) {
	vals := []float64{0.25, 1e-300, 3}
	st := quad.RenderStats{Pixels: 3, LeafScans: 7}
	want := []string{"a " + digestFloats(vals) + statsFields(st), "b " + digestFloats(vals[:1])}
	if d := diffLedger(want, want); len(d) != 0 {
		t.Fatalf("identical ledgers differ: %v", d)
	}
	ulp := append([]float64(nil), vals...)
	ulp[1] = math.Nextafter(ulp[1], math.Inf(1))
	count := st
	count.LeafScans++
	for name, line := range map[string]string{
		"one ulp":   "a " + digestFloats(ulp) + statsFields(st),
		"one count": "a " + digestFloats(vals) + statsFields(count),
	} {
		d := diffLedger([]string{line, want[1]}, want)
		if len(d) != 1 || !strings.HasPrefix(d[0], "a:") {
			t.Errorf("%s: comparator reported %q, want one difference in cell a", name, d)
		}
	}
	if d := diffLedger(want[:1], want); len(d) != 1 || !strings.HasPrefix(d[0], "b:") {
		t.Errorf("missing cell: comparator reported %q, want cell b", d)
	}
}

// diffLedger returns one message per cell whose line differs between got
// and want, or that only one of them has.
func diffLedger(got, want []string) []string {
	split := func(lines []string) (map[string]string, []string) {
		m := make(map[string]string, len(lines))
		var order []string
		for _, l := range lines {
			name, rest, _ := strings.Cut(l, " ")
			if _, dup := m[name]; !dup {
				order = append(order, name)
			}
			m[name] = rest
		}
		return m, order
	}
	g, gotOrder := split(got)
	w, wantOrder := split(want)
	var diffs []string
	for _, name := range wantOrder {
		switch gl, ok := g[name]; {
		case !ok:
			diffs = append(diffs, name+": missing, want "+w[name])
		case gl != w[name]:
			diffs = append(diffs, name+":\n  got  "+gl+"\n  want "+w[name])
		}
	}
	for _, name := range gotOrder {
		if _, ok := w[name]; !ok {
			diffs = append(diffs, name+": not in the golden file")
		}
	}
	return diffs
}

// digestFloats returns the sha256 of the values' Float64bits.
func digestFloats(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("sha256=%x", h.Sum(nil))
}

// digestBools returns the sha256 of a τ mask, one byte per pixel.
func digestBools(hot []bool) string {
	b := make([]byte, len(hot))
	for i, h := range hot {
		if h {
			b[i] = 1
		}
	}
	return fmt.Sprintf("sha256=%x", sha256.Sum256(b))
}

// statsFields formats every RenderStats counter that must not depend on
// timing or the worker count.
func statsFields(st quad.RenderStats) string {
	depth := make([]string, len(st.DepthPixels))
	for i, n := range st.DepthPixels {
		depth[i] = fmt.Sprint(n)
	}
	return fmt.Sprintf(" px=%d tiles=%d decided=%d shared=%d promo=%d iters=%d evals=%d leaves=%d points=%d depth=%s",
		st.Pixels, st.Tiles, st.TilesDecided, st.SharedNodeEvals, st.FrontierPromotions,
		st.Iterations, st.NodesEvaluated, st.LeafScans, st.PointsScanned, strings.Join(depth, ","))
}

func epsLine(k *quad.KDV, res quad.Resolution, eps float64, win quad.Window) (string, error) {
	r, err := k.Render(context.Background(), quad.Request{Res: res, Window: win, Eps: eps})
	if err != nil {
		return "", err
	}
	return digestFloats(r.Density.Values) + statsFields(r.Stats), nil
}

func tauLine(k *quad.KDV, res quad.Resolution, tau float64, win quad.Window) (string, error) {
	r, err := k.Render(context.Background(), quad.Request{Variant: quad.TauKDV, Res: res, Window: win, Tau: tau})
	if err != nil {
		return "", err
	}
	return digestBools(r.Hot.Hot) + statsFields(r.Stats), nil
}

// meanEps is the mean of an εKDV render: the τ the cells threshold at, so
// their masks hold hot and cold pixels.
func meanEps(k *quad.KDV, res quad.Resolution, eps float64, win quad.Window) (float64, error) {
	r, err := k.Render(context.Background(), quad.Request{Res: res, Window: win, Eps: eps})
	if err != nil {
		return 0, err
	}
	dm := r.Density
	var mu float64
	for _, v := range dm.Values {
		mu += v
	}
	return mu / float64(len(dm.Values)), nil
}

type ledger struct {
	t     *testing.T
	lines []string
}

func (l *ledger) add(name, line string) { l.lines = append(l.lines, name+" "+line) }

// cell records the line line(k) gives for a KDV built over pts with opts,
// after checking that every ledger variant gives the same line.
func (l *ledger) cell(name string, pts geom.Points, opts []quad.Option, line func(*quad.KDV) (string, error)) {
	l.t.Helper()
	var first string
	for i, v := range ledgerVariants {
		k, err := quad.New(pts.Coords, pts.Dim, append(append([]quad.Option(nil), opts...), v.opts...)...)
		if err != nil {
			l.t.Fatalf("%s: %v", name, err)
		}
		got, err := line(k)
		if err != nil {
			l.t.Fatalf("%s %s: %v", name, v.name, err)
		}
		if i == 0 {
			first = got
		} else if got != first {
			l.t.Errorf("%s: %s gives\n  %s\n%s gives\n  %s", name, v.name, got, ledgerVariants[0].name, first)
		}
	}
	l.add(name, first)
}

// epsTauCells records an εKDV and a τKDV cell over one configuration.
func (l *ledger) epsTauCells(name string, pts geom.Points, opts []quad.Option, res quad.Resolution, eps, tau float64) {
	l.t.Helper()
	l.cell("eps/"+name, pts, opts, func(k *quad.KDV) (string, error) { return epsLine(k, res, eps, quad.Window{}) })
	l.cell("tau/"+name, pts, opts, func(k *quad.KDV) (string, error) { return tauLine(k, res, tau, quad.Window{}) })
}

func ledgerLines(t *testing.T) []string {
	l := &ledger{t: t}
	big := dataset.Crime(8000, 7)
	small, err := dataset.Generate("crime", 1200, 7)
	if err != nil {
		t.Fatal(err)
	}

	// crime 8000, 64×48: two kernels × every bound method × per-pixel and
	// tiled refinement.
	for _, kern := range []quad.Kernel{quad.Gaussian, quad.Epanechnikov} {
		for _, m := range []quad.Method{quad.MethodQuadratic, quad.MethodMinMax, quad.MethodLinear} {
			if m == quad.MethodLinear && kern != quad.Gaussian {
				continue
			}
			for _, ts := range []int{1, 16} {
				opts := []quad.Option{quad.WithKernel(kern), quad.WithMethod(m), quad.WithTileSize(ts)}
				l.epsTauCells(fmt.Sprintf("identity/%s/%s/ts=%d", kern, m, ts), big, opts, quad.Resolution{W: 64, H: 48}, 0.05, 0.001)
			}
		}
	}
	// The exponential kernel's leaf scans call its profile's exp.
	l.epsTauCells("identity/exponential/quad/ts=16", big,
		[]quad.Option{quad.WithKernel(quad.Exponential), quad.WithTileSize(16)}, quad.Resolution{W: 64, H: 48}, 0.05, 0.001)

	// The conformance matrix at the kdvcheck settings of `make verify`:
	// crime n=1200 seed 7, 32×24, ε=0.05, every kernel × bound method ×
	// tile size, with (γ, w) from a default build and τ at 1.05 times its
	// mean density; then 2-, 3- and 4-way shards and the 3-way merge.
	res := quad.Resolution{W: 32, H: 24}
	for _, kk := range kernel.All() {
		kern := quad.Kernel(kk)
		ref, err := quad.New(small.Coords, 2, quad.WithKernel(kern))
		if err != nil {
			t.Fatal(err)
		}
		mu, err := meanEps(ref, res, 0.05, quad.Window{})
		if err != nil {
			t.Fatal(err)
		}
		tau := mu * (1 + 0.1*0.5)
		for _, m := range []quad.Method{quad.MethodQuadratic, quad.MethodLinear, quad.MethodMinMax} {
			if m == quad.MethodLinear && !kk.HasLinearBounds() {
				continue
			}
			for _, ts := range []int{1, 4, 16} {
				opts := []quad.Option{quad.WithKernel(kern), quad.WithMethod(m),
					quad.WithBandwidth(ref.Gamma(), ref.Weight()), quad.WithTileSize(ts)}
				l.epsTauCells(fmt.Sprintf("conformance/%s/%s/ts=%d", kern, m, ts), small, opts, res, 0.05, tau)
			}
		}
	}
	ref, err := quad.New(small.Coords, 2)
	if err != nil {
		t.Fatal(err)
	}
	bw := quad.WithBandwidth(ref.Gamma(), ref.Weight())
	for _, count := range []int{2, 3, 4} {
		var shards [][]float64
		for i := 0; i < count; i++ {
			l.cell(fmt.Sprintf("shard/%d-of-%d", i, count), small, []quad.Option{bw, quad.WithShard(i, count)},
				func(k *quad.KDV) (string, error) {
					r, err := k.Render(context.Background(), quad.Request{Res: res, Eps: 0.05})
					if err != nil {
						return "", err
					}
					shards = append(shards[:i], r.Density.Values)
					return digestFloats(r.Density.Values) + statsFields(r.Stats), nil
				})
		}
		if count == 3 {
			merged := make([]float64, len(shards[0]))
			for _, s := range shards {
				for i, v := range s {
					merged[i] += v
				}
			}
			l.add("shard/merge-of-3", digestFloats(merged))
		}
	}

	ws := make([]float64, small.Len())
	for i := range ws {
		ws[i] = float64(i%7+1) / 4
	}
	l.epsTauCells("weighted/gaussian/quad", small, []quad.Option{quad.WithPointWeights(ws)}, res, 0.05, 0.02)

	// A z=2 tile mosaic: sixteen 16×16 sub-renders stitched into 64×64.
	l.cell("mosaic/z=2", small, nil, func(k *quad.KDV) (string, error) {
		const side, n = 16, 4
		full := quad.Resolution{W: side * n, H: side * n}
		stitched := make([]float64, full.W*full.H)
		var total quad.RenderStats
		for ty := 0; ty < n; ty++ {
			for tx := 0; tx < n; tx++ {
				sub := quad.PixelRect{X0: tx * side, Y0: ty * side, X1: (tx + 1) * side, Y1: (ty + 1) * side}
				r, err := k.Render(context.Background(), quad.Request{Res: full, Sub: sub, Eps: 0.05})
				if err != nil {
					return "", err
				}
				total.Add(r.Stats)
				for y := 0; y < side; y++ {
					copy(stitched[(sub.Y0+y)*full.W+sub.X0:], r.Density.Values[y*side:(y+1)*side])
				}
			}
		}
		return digestFloats(stitched) + statsFields(total), nil
	})

	l.cell("progressive/gaussian/quad", small, nil, func(k *quad.KDV) (string, error) {
		return progLine(k, quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.05})
	})
	progressiveCells(l, small, res)
	l.cell("threshold/gaussian/quad", big, nil, func(k *quad.KDV) (string, error) {
		mu, sigma, err := k.ThresholdStatsCtx(context.Background(), quad.Resolution{W: 48, H: 40}, 3, 0.01)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("mu=%x sigma=%x", math.Float64bits(mu), math.Float64bits(sigma)), nil
	})

	// Windows 0.5, 1 and 2 widths east of the data, where densities are a
	// tail of the kernel.
	bigRef, err := quad.New(big.Coords, 2)
	if err != nil {
		t.Fatal(err)
	}
	workMapCells(l, big, bigRef)
	for _, off := range []float64{0.5, 1, 2} {
		win, err := bigRef.DefaultWindow()
		if err != nil {
			t.Fatal(err)
		}
		shift := off * (win.MaxX - win.MinX)
		win.MinX += shift
		win.MaxX += shift
		win48 := quad.Resolution{W: 48, H: 48}
		tau, err := meanEps(bigRef, win48, 0.01, win)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("window/gaussian/quad/off=%g", off)
		l.cell("eps/"+name, big, nil, func(k *quad.KDV) (string, error) { return epsLine(k, win48, 0.01, win) })
		l.cell("tau/"+name, big, nil, func(k *quad.KDV) (string, error) { return tauLine(k, win48, tau, win) })
	}

	// Rasters of one to four tiles, where the work workers share is a
	// tile's 4×4 sub-tiles: a 16×16 render of the whole extent, whose tile
	// refines every pixel from the root; a 16×16 render of a window 1/32 of
	// the extent on a side, whose tile warm-starts pixels from sub-tile
	// frontiers; a 20×20 render of that window, four warm-started tiles
	// with 4-pixel ragged edges; and a 16×16 τ render whose tile the shared
	// phase leaves undecided.
	full, err := bigRef.DefaultWindow()
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := (full.MinX+full.MaxX)/2, (full.MinY+full.MaxY)/2
	hw, hh := (full.MaxX-full.MinX)/64, (full.MaxY-full.MinY)/64
	narrow := quad.Window{MinX: cx - hw, MinY: cy - hh, MaxX: cx + hw, MaxY: cy + hh}
	res16 := quad.Resolution{W: 16, H: 16}
	tau16, err := meanEps(bigRef, res16, 0.05, quad.Window{})
	if err != nil {
		t.Fatal(err)
	}
	l.cell("eps/one-tile/root", big, nil, func(k *quad.KDV) (string, error) { return epsLine(k, res16, 0.05, quad.Window{}) })
	l.cell("eps/one-tile/warm", big, nil, func(k *quad.KDV) (string, error) { return epsLine(k, res16, 0.05, narrow) })
	l.cell("eps/ragged/20x20", big, nil, func(k *quad.KDV) (string, error) {
		return epsLine(k, quad.Resolution{W: 20, H: 20}, 0.05, narrow)
	})
	l.cell("tau/one-tile/undecided", big, nil, func(k *quad.KDV) (string, error) { return tauLine(k, res16, tau16, quad.Window{}) })

	// kdvperf dataset-churn's render shape: one 16×16 tile over the whole
	// extent of a 50k-point analogue at ε = 0.1. Its corner pixels are
	// tails many orders of magnitude below the root bounds.
	for _, key := range []struct {
		name string
		seed int64
	}{{"elnino", 500}, {"elnino", 501}, {"home", 500}, {"home", 501}, {"hep", 500}, {"hep", 501}, {"crime", 500}} {
		pts, err := dataset.Generate2D(key.name, 50000, key.seed)
		if err != nil {
			t.Fatal(err)
		}
		l.cell(fmt.Sprintf("eps/churn/%s/seed=%d", key.name, key.seed), pts, nil,
			func(k *quad.KDV) (string, error) { return epsLine(k, res16, 0.1, quad.Window{}) })
	}

	benchCells(l)

	// n = 61: Scott's factor 61^(−1/6) is one of the exponents whose
	// math.Pow result differs between FMA and non-FMA amd64 hosts.
	tiny := dataset.Crime(61, 7)
	l.cell("n61/gaussian-gamma", tiny, nil, func(k *quad.KDV) (string, error) {
		return fmt.Sprintf("gamma=%x weight=%x", math.Float64bits(k.Gamma()), math.Float64bits(k.Weight())), nil
	})
	l.epsTauCells("n61/triangular/quad", tiny, []quad.Option{quad.WithKernel(quad.Triangular)},
		quad.Resolution{W: 48, H: 36}, 0.01, 0.001)

	queries := ledgerQueries(big)
	for _, m := range []quad.Method{quad.MethodQuadratic, quad.MethodLinear, quad.MethodMinMax} {
		l.cell("query/gaussian/"+m.String(), big, []quad.Option{quad.WithMethod(m)}, func(k *quad.KDV) (string, error) {
			var out []float64
			for _, q := range queries {
				v, err := k.Estimate(q, 0.01)
				if err != nil {
					return "", err
				}
				hot, err := k.IsHot(q, 0.002)
				if err != nil {
					return "", err
				}
				lb, ub, err := k.DensityBounds(q)
				if err != nil {
					return "", err
				}
				h := 0.0
				if hot {
					h = 1
				}
				out = append(out, v, h, lb, ub)
			}
			return digestFloats(out), nil
		})
	}

	classifyCells(l, queries)
	regressCells(l, queries)
	boundTraceCells(l, big, queries)
	indexCells(l)
	return l.lines
}

// benchCells pin the work counters of `kdvbench -json`'s 256² cells, the
// paper's Table 3 refinement loop with and without tile sharing: crime
// n = 30,000 (seed 20200614), ε = 0.05 and τ = μ + 1σ of the map's
// statistics, εKDV and τKDV, tile-shared and per-pixel.
func benchCells(l *ledger) {
	pts, err := dataset.Generate2D("crime", 30000, 20200614)
	if err != nil {
		l.t.Fatal(err)
	}
	ref, err := quad.New(pts.Coords, pts.Dim)
	if err != nil {
		l.t.Fatal(err)
	}
	res := quad.Resolution{W: 256, H: 256}
	mu, sigma, err := ref.ThresholdStatsCtx(context.Background(), res, 8, 0.05)
	if err != nil {
		l.t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		tile int
	}{{"tile", 0}, {"perpixel", 1}} {
		opts := []quad.Option{quad.WithTileSize(mode.tile)}
		l.cell("bench/eps/"+mode.name, pts, opts, func(k *quad.KDV) (string, error) { return epsLine(k, res, 0.05, quad.Window{}) })
		l.cell("bench/tau/"+mode.name, pts, opts, func(k *quad.KDV) (string, error) { return tauLine(k, res, mu+sigma, quad.Window{}) })
	}
}

// progLine renders a progressive request and formats its raster, progress
// and counters.
func progLine(k *quad.KDV, req quad.Request) (string, error) {
	r, err := k.Render(context.Background(), req)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s evaluated=%d complete=%v%s", digestFloats(r.Density.Values), r.Evaluated, r.Complete, statsFields(r.Stats)), nil
}

// progressiveCells pin the progressive render's other shapes: cut mid-level
// by a pixel limit (85 pixels fill levels 0–3 of a 32×24 raster), over a
// window, with per-pixel refinement, by the exact scan, and streamed, where
// each snapshot's level, evaluated count, final flag and raster are pinned.
func progressiveCells(l *ledger, pts geom.Points, res quad.Resolution) {
	req := quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.05}
	l.cell("progressive/maxpixels=100", pts, nil, func(k *quad.KDV) (string, error) {
		cut := req
		cut.MaxPixels = 100
		return progLine(k, cut)
	})
	l.cell("progressive/window", pts, nil, func(k *quad.KDV) (string, error) {
		w, err := k.DefaultWindow()
		if err != nil {
			return "", err
		}
		dx, dy := (w.MaxX-w.MinX)/4, (w.MaxY-w.MinY)/4
		win := req
		win.Window = quad.Window{MinX: w.MinX + dx, MinY: w.MinY + dy, MaxX: w.MaxX - dx, MaxY: w.MaxY - dy}
		return progLine(k, win)
	})
	for _, c := range []struct {
		name string
		opt  quad.Option
	}{{"ts=1", quad.WithTileSize(1)}, {"exact", quad.WithMethod(quad.MethodExact)}} {
		l.cell("progressive/"+c.name, pts, []quad.Option{c.opt}, func(k *quad.KDV) (string, error) { return progLine(k, req) })
	}
	l.cell("progressive/stream", pts, nil, func(k *quad.KDV) (string, error) {
		var snaps []string
		stream := req
		stream.Emit = func(s quad.Snapshot) bool {
			snaps = append(snaps, fmt.Sprintf("level=%d evaluated=%d final=%v %s", s.Level, s.Evaluated, s.Final, digestFloats(s.Map.Values)))
			return true
		}
		line, err := progLine(k, stream)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("snapshots=%d sha256=%x %s", len(snaps), sha256.Sum256([]byte(strings.Join(snaps, "\n"))), line), nil
	})
}

// workMapCells pin the εKDV and τKDV work maps: the raster, all three
// layers and the counters.
func workMapCells(l *ledger, pts geom.Points, ref *quad.KDV) {
	res := quad.Resolution{W: 48, H: 40}
	tau, err := meanEps(ref, res, 0.05, quad.Window{})
	if err != nil {
		l.t.Fatal(err)
	}
	layers := func(wm *quad.WorkMap) string {
		return fmt.Sprintf(" depth:%s evals:%s gap:%s", digestFloats(wm.Depth), digestFloats(wm.Evals), digestFloats(wm.Gap))
	}
	l.cell("workmap/eps", pts, nil, func(k *quad.KDV) (string, error) {
		r, err := k.Render(context.Background(), quad.Request{Res: res, Eps: 0.05, WorkMap: true})
		if err != nil {
			return "", err
		}
		return digestFloats(r.Density.Values) + layers(r.Work) + statsFields(r.Stats), nil
	})
	l.cell("workmap/tau", pts, nil, func(k *quad.KDV) (string, error) {
		r, err := k.Render(context.Background(), quad.Request{Variant: quad.TauKDV, Res: res, Tau: tau, WorkMap: true})
		if err != nil {
			return "", err
		}
		return digestBools(r.Hot.Hot) + layers(r.Work) + statsFields(r.Stats), nil
	})
}

// indexCells pin the kd-tree index itself: the point and weight order and
// every array of the tree, for the serving shape (crime 50k, Gram) and for
// weighted, Gram-free, small-leaf, duplicate-heavy, 3-d, 10-d and tiny
// inputs. Each is built at workers 1 and 4, which must agree.
func indexCells(l *ledger) {
	rng := rand.New(rand.NewSource(20))
	weightsFor := func(n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = rng.Float64()
		}
		return ws
	}
	lattice := make([]float64, 2*5000)
	for i := range lattice {
		lattice[i] = math.Floor(8*rng.Float64()) / 8
	}
	crime20k := dataset.Crime(20000, 7)
	cells := []struct {
		name string
		pts  geom.Points
		opt  kdtree.Options
	}{
		{"crime/n50000/gram", dataset.Crime(50000, 7), kdtree.Options{Gram: true}},
		{"crime/n20000/weighted/gram", crime20k, kdtree.Options{Gram: true, Weights: weightsFor(20000)}},
		{"crime/n20000/leaf4", crime20k, kdtree.Options{LeafSize: 4}},
		{"lattice8/n5000/weighted/gram", geom.NewPoints(lattice, 2), kdtree.Options{Gram: true, Weights: weightsFor(5000)}},
		{"hep3/n5000/gram", dataset.Hep(5000, 3, 7), kdtree.Options{Gram: true}},
		{"hep10/n5000/gram", dataset.Hep(5000, 10, 7), kdtree.Options{Gram: true}},
		{"crime/n1/gram", dataset.Crime(1, 7), kdtree.Options{Gram: true}},
		{"crime/n31/gram", dataset.Crime(31, 7), kdtree.Options{Gram: true}},
	}
	for _, c := range cells {
		var first string
		for _, workers := range []int{1, 4} {
			opt := c.opt
			opt.Workers = workers
			if opt.Weights != nil {
				opt.Weights = append([]float64(nil), opt.Weights...)
			}
			got, err := indexLine(c.pts.Clone(), opt)
			if err != nil {
				l.t.Fatalf("index/%s: %v", c.name, err)
			}
			if first == "" {
				first = got
			} else if got != first {
				l.t.Errorf("index/%s: workers=%d gives\n  %s\nworkers=1 gives\n  %s", c.name, workers, got, first)
			}
		}
		l.add("index/"+c.name, first)
	}
}

// indexLine builds the index over pts and returns the sha256 of its point
// order, weights and every array, with its node count and height.
func indexLine(pts geom.Points, opt kdtree.Options) (string, error) {
	t, err := kdtree.Build(pts, opt)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	ints := func(vs []int32) {
		binary.Write(h, binary.LittleEndian, int64(len(vs)))
		binary.Write(h, binary.LittleEndian, vs)
	}
	floats := func(vs []float64) {
		binary.Write(h, binary.LittleEndian, int64(len(vs)))
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	floats(t.Pts.Coords)
	floats(t.Weights)
	ints(t.Left)
	ints(t.Right)
	ints(t.Start)
	ints(t.End)
	for _, a := range [][]float64{t.RectMin, t.RectMax, t.Center, t.SumP, t.SumNorm2P,
		t.SumW, t.SumNorm2, t.SumNorm4, t.Radius, t.Gram} {
		floats(a)
	}
	return fmt.Sprintf("sha256=%x nodes=%d height=%d", h.Sum(nil), t.NumNodes(), t.Height()), nil
}

// ledgerQueries are 25 points on a 5×5 lattice over pts' bounding box and
// one point far outside it.
func ledgerQueries(pts geom.Points) [][]float64 {
	r := geom.BoundingRect(pts)
	var qs [][]float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			qs = append(qs, []float64{
				r.Min[0] + (float64(i)+0.5)*(r.Max[0]-r.Min[0])/5,
				r.Min[1] + (float64(j)+0.5)*(r.Max[1]-r.Min[1])/5,
			})
		}
	}
	return append(qs, []float64{r.Max[0] * 3, r.Max[1] * 3})
}

func classifyCells(l *ledger, queries [][]float64) {
	classes := map[string]geom.Points{
		"a": dataset.Crime(600, 1),
		"b": dataset.Crime(600, 2),
		"c": dataset.Crime(600, 3),
	}
	var pooled []float64
	for _, label := range []string{"a", "b", "c"} {
		pooled = append(pooled, classes[label].Coords...)
	}
	gamma := stats.ScottsRule(geom.NewPoints(pooled, 2), kernel.Gaussian).Gamma
	c, err := classify.New(classes, classify.Config{Kernel: kernel.Gaussian, Gamma: gamma, Method: bounds.Quadratic})
	if err != nil {
		l.t.Fatal(err)
	}
	var labels []string
	var margins, dens []float64
	var work engine.Stats
	for _, q := range queries {
		r, err := c.Classify(q)
		if err != nil {
			l.t.Fatal(err)
		}
		labels = append(labels, r.Label)
		margins = append(margins, r.Margin)
		work.Add(r.Stats)
		d, err := c.Densities(q, 0.01)
		if err != nil {
			l.t.Fatal(err)
		}
		keys := make([]string, 0, len(d))
		for k := range d {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dens = append(dens, d[k])
		}
	}
	l.add("classify/gaussian/quad", fmt.Sprintf("labels=%s margins:%s iters=%d evals=%d leaves=%d points=%d",
		strings.Join(labels, ""), digestFloats(margins), work.Iterations, work.NodesEvaluated, work.LeafScans, work.PointsScanned))
	l.add("classify-densities/gaussian/quad", digestFloats(dens))
}

func regressCells(l *ledger, queries [][]float64) {
	pts := dataset.Crime(800, 5)
	x := make([][]float64, pts.Len())
	y := make([]float64, pts.Len())
	for i := range x {
		p := pts.At(i)
		x[i] = []float64{p[0], p[1]}
		y[i] = math.Sin(p[0]/7) + math.Cos(p[1]/11) - 0.5
	}
	r, err := quad.NewRegressor(x, y, quad.Gaussian, 0)
	if err != nil {
		l.t.Fatal(err)
	}
	var out []float64
	for _, q := range queries {
		v, ok, err := r.Predict(q, 1e-3)
		if err != nil {
			l.t.Fatal(err)
		}
		okv := 0.0
		if ok {
			okv = 1
		}
		out = append(out, v, okv)
	}
	l.add("regress/gaussian/quad", digestFloats(out))
}

// boundTraceCells record the Figure 18 bound traces, KARL and QUAD, at each
// query.
func boundTraceCells(l *ledger, pts geom.Points, queries [][]float64) {
	bw := stats.ScottsRule(pts, kernel.Gaussian)
	tree, err := kdtree.Build(pts.Clone(), kdtree.Options{Gram: true})
	if err != nil {
		l.t.Fatal(err)
	}
	for _, m := range []bounds.Method{bounds.Linear, bounds.Quadratic} {
		ev, err := bounds.NewEvaluator(kernel.Gaussian, bw.Gamma, bw.Weight, m, 2)
		if err != nil {
			l.t.Fatal(err)
		}
		e, err := engine.NewFlat(tree, ev)
		if err != nil {
			l.t.Fatal(err)
		}
		var out []float64
		for _, q := range queries {
			tr := e.BoundTrace(q, 0.01)
			out = append(out, float64(len(tr)))
			for _, p := range tr {
				out = append(out, float64(p.Iteration), p.LB, p.UB)
			}
		}
		l.add("boundtrace/gaussian/"+m.String(), digestFloats(out))
	}
}
