package quad_test

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
)

var (
	reqRes = quad.Resolution{W: 24, H: 16}
	reqWin = quad.Window{MinX: 10, MinY: 10, MaxX: 60, MaxY: 40}
	reqSub = quad.PixelRect{X0: 8, Y0: 0, X1: 24, Y1: 8}
	keep   = func(quad.Snapshot) bool { return true }
)

// acceptedRequests are the request shapes of the render methods Render
// replaced, named after them.
var acceptedRequests = []struct {
	name string
	req  quad.Request
}{
	{"RenderEpsCtx", quad.Request{Res: reqRes, Eps: 0.05}},
	{"RenderEpsInCtx", quad.Request{Res: reqRes, Window: reqWin, Eps: 0.05}},
	{"RenderEpsSubInCtx", quad.Request{Res: reqRes, Window: reqWin, Sub: reqSub, Eps: 0.05}},
	{"RenderEpsWorkMapInCtx", quad.Request{Res: reqRes, Window: reqWin, Eps: 0.05, WorkMap: true}},
	{"RenderTauCtx", quad.Request{Variant: quad.TauKDV, Res: reqRes, Tau: 0.001}},
	{"RenderTauInCtx", quad.Request{Variant: quad.TauKDV, Res: reqRes, Window: reqWin, Tau: 0.001}},
	{"RenderTauWorkMapInCtx", quad.Request{Variant: quad.TauKDV, Res: reqRes, Window: reqWin, Tau: 0.001, WorkMap: true}},
	{"RenderProgressiveCtx", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Eps: 0.05, Budget: time.Second, MaxPixels: 50}},
	{"RenderProgressiveInCtx", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Window: reqWin, Eps: 0.05}},
	{"RenderProgressiveStreamCtx", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Eps: 0.05, Emit: keep}},
	{"τ=+Inf", quad.Request{Variant: quad.TauKDV, Res: reqRes, Tau: math.Inf(1)}},
	{"deep-zoom sub", quad.Request{Res: quad.Resolution{W: 1 << 40, H: 1 << 40}, Sub: quad.PixelRect{X0: 1 << 39, Y0: 0, X1: 1<<39 + 4, Y1: 4}}},
}

// rejectedRequests each set one field their variant does not take, or one
// value no render can honour.
var rejectedRequests = []struct {
	name string
	req  quad.Request
}{
	{"unknown variant", quad.Request{Variant: 3, Res: reqRes}},
	{"negative variant", quad.Request{Variant: -1, Res: reqRes}},
	{"Eps on τKDV", quad.Request{Variant: quad.TauKDV, Res: reqRes, Eps: 0.05, Tau: 0.001}},
	{"Tau on εKDV", quad.Request{Res: reqRes, Eps: 0.05, Tau: 0.001}},
	{"Tau on progressive", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Eps: 0.05, Tau: 0.001}},
	{"Budget on εKDV", quad.Request{Res: reqRes, Eps: 0.05, Budget: time.Second}},
	{"MaxPixels on τKDV", quad.Request{Variant: quad.TauKDV, Res: reqRes, Tau: 0.001, MaxPixels: 10}},
	{"Emit on εKDV", quad.Request{Res: reqRes, Eps: 0.05, Emit: keep}},
	{"WorkMap on progressive", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Eps: 0.05, WorkMap: true}},
	{"Sub on τKDV", quad.Request{Variant: quad.TauKDV, Res: reqRes, Sub: reqSub, Tau: 0.001}},
	{"Sub on progressive", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Sub: reqSub, Eps: 0.05}},
	{"Sub with WorkMap", quad.Request{Res: reqRes, Sub: reqSub, Eps: 0.05, WorkMap: true}},
	{"negative ε", quad.Request{Res: reqRes, Eps: -0.05}},
	{"NaN ε", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Eps: math.NaN()}},
	{"NaN τ", quad.Request{Variant: quad.TauKDV, Res: reqRes, Tau: math.NaN()}},
	{"zero resolution", quad.Request{Eps: 0.05}},
	{"past the raster cap", quad.Request{Res: quad.Resolution{W: 1 << 15, H: 1 << 14}, Eps: 0.05}},
	{"W×H overflows", quad.Request{Res: quad.Resolution{W: math.MaxInt, H: math.MaxInt}, Eps: 0.05}},
	{"degenerate sub", quad.Request{Res: reqRes, Sub: quad.PixelRect{X0: 4, Y0: 4, X1: 4, Y1: 8}, Eps: 0.05}},
	{"sub outside the raster", quad.Request{Res: reqRes, Sub: quad.PixelRect{X0: 16, Y0: 8, X1: 32, Y1: 16}, Eps: 0.05}},
	{"sub of no raster", quad.Request{Sub: reqSub, Eps: 0.05}},
	{"sub past the raster cap", quad.Request{Res: quad.Resolution{W: 1 << 20, H: 1 << 20}, Sub: quad.PixelRect{X1: 1 << 15, Y1: 1 << 14}, Eps: 0.05}},
	{"degenerate window", quad.Request{Res: reqRes, Window: quad.Window{MinX: 1, MinY: 0, MaxX: 1, MaxY: 2}, Eps: 0.05}},
	{"NaN window", quad.Request{Variant: quad.TauKDV, Res: reqRes, Window: quad.Window{MinX: math.NaN(), MaxX: 1, MaxY: 1}, Tau: 0.001}},
	{"window width overflows", quad.Request{Variant: quad.ProgressiveKDV, Res: reqRes, Window: quad.Window{MinX: -math.MaxFloat64, MaxX: math.MaxFloat64, MaxY: 1}, Eps: 0.05}},
}

// TestRequestValidate pins which requests Validate accepts and that Render
// refuses every one it rejects with Validate's error and a zero Result.
func TestRequestValidate(t *testing.T) {
	k := requestKDV(t)
	for _, c := range acceptedRequests {
		if err := c.req.Validate(); err != nil {
			t.Errorf("%s: Validate rejected it: %v", c.name, err)
		}
	}
	for _, c := range rejectedRequests {
		err := c.req.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
			continue
		}
		r, rerr := k.Render(context.Background(), c.req)
		if rerr == nil || rerr.Error() != err.Error() || !reflect.DeepEqual(r, quad.Result{}) {
			t.Errorf("%s: Render returned (%+v, %v), want a zero Result and %v", c.name, r, rerr, err)
		}
	}
}

// TestDeprecatedWrappersMatchRender pins the three wrappers kept for the
// benchmark module to the Render requests they stand for.
func TestDeprecatedWrappersMatchRender(t *testing.T) {
	k := requestKDV(t)
	ctx := context.Background()
	same := func(name string, got, want quad.RenderStats) {
		got.Elapsed, got.SharedElapsed, want.Elapsed, want.SharedElapsed = 0, 0, 0, 0
		if got != want {
			t.Errorf("%s: stats %+v, Render's %+v", name, got, want)
		}
	}
	r, err := k.Render(ctx, quad.Request{Res: reqRes, Window: reqWin, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dm, st, err := k.RenderEpsStatsInCtx(ctx, reqRes, 0.05, reqWin)
	if err != nil || !reflect.DeepEqual(dm, r.Density) {
		t.Errorf("RenderEpsStatsInCtx: %v, or its map differs from Render's", err)
	}
	same("RenderEpsStatsInCtx", st, r.Stats)

	r, err = k.Render(ctx, quad.Request{Res: reqRes, Window: reqWin, Sub: reqSub, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dm, st, err = k.RenderEpsSubStatsInCtx(ctx, reqRes, 0.05, reqWin, reqSub)
	if err != nil || !reflect.DeepEqual(dm, r.Density) {
		t.Errorf("RenderEpsSubStatsInCtx: %v, or its map differs from Render's", err)
	}
	same("RenderEpsSubStatsInCtx", st, r.Stats)

	r, err = k.Render(ctx, quad.Request{Variant: quad.TauKDV, Res: reqRes, Window: reqWin, Tau: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	hm, st, err := k.RenderTauStatsInCtx(ctx, reqRes, 0.001, reqWin)
	if err != nil || !reflect.DeepEqual(hm, r.Hot) {
		t.Errorf("RenderTauStatsInCtx: %v, or its mask differs from Render's", err)
	}
	same("RenderTauStatsInCtx", st, r.Stats)

	if _, _, err := k.RenderEpsStatsInCtx(ctx, reqRes, -1, quad.Window{}); err == nil {
		t.Error("RenderEpsStatsInCtx accepted ε = -1")
	}
}

func requestKDV(tb testing.TB) *quad.KDV {
	tb.Helper()
	pts := dataset.Crime(60, 7)
	k, err := quad.New(pts.Coords, pts.Dim, quad.WithWorkers(2))
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// FuzzRenderRequest decodes its input into every Request field. Validate
// must not panic; a request it rejects must get the same error and a zero
// Result from Render; and an accepted one whose output raster has at most
// 4096 pixels must render to exactly that size, with finite densities ≥ 0
// and at most that many evaluated pixels.
func FuzzRenderRequest(f *testing.F) {
	add := func(r quad.Request) {
		emit := uint8(0)
		if r.Emit != nil {
			emit = 1
		}
		f.Add(int(r.Variant), r.Res.W, r.Res.H, r.Window.MinX, r.Window.MinY, r.Window.MaxX, r.Window.MaxY,
			r.Sub.X0, r.Sub.Y0, r.Sub.X1, r.Sub.Y1, r.Eps, r.Tau, r.WorkMap, int64(r.Budget), r.MaxPixels, emit)
	}
	for _, c := range acceptedRequests {
		add(c.req)
	}
	for _, c := range rejectedRequests {
		add(c.req)
	}
	k := requestKDV(f)
	f.Fuzz(func(t *testing.T, variant, w, h int, minX, minY, maxX, maxY float64, x0, y0, x1, y1 int,
		eps, tau float64, workMap bool, budget int64, maxPixels int, emit uint8) {
		req := quad.Request{
			Variant:   quad.Variant(variant),
			Res:       quad.Resolution{W: w, H: h},
			Window:    quad.Window{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY},
			Sub:       quad.PixelRect{X0: x0, Y0: y0, X1: x1, Y1: y1},
			Eps:       eps,
			Tau:       tau,
			WorkMap:   workMap,
			Budget:    time.Duration(budget),
			MaxPixels: maxPixels,
		}
		switch emit % 3 {
		case 1:
			req.Emit = keep
		case 2:
			req.Emit = func(quad.Snapshot) bool { return false }
		}
		verr := req.Validate()
		if verr != nil {
			r, err := k.Render(context.Background(), req)
			if err == nil || err.Error() != verr.Error() || !reflect.DeepEqual(r, quad.Result{}) {
				t.Fatalf("Validate: %v; Render returned (%+v, %v)", verr, r, err)
			}
			return
		}
		out := req.Res
		if req.Sub != (quad.PixelRect{}) {
			out = quad.Resolution{W: req.Sub.W(), H: req.Sub.H()}
		}
		pixels := out.W * out.H
		if pixels > 4096 {
			return
		}
		r, err := k.Render(context.Background(), req)
		if err != nil {
			t.Fatalf("accepted request failed: %v", err)
		}
		if r.Evaluated > pixels || r.Evaluated < 0 {
			t.Fatalf("Evaluated = %d of %d pixels", r.Evaluated, pixels)
		}
		if req.Variant == quad.TauKDV {
			if r.Hot == nil || r.Hot.Res != out || len(r.Hot.Hot) != pixels {
				t.Fatalf("τKDV mask %+v, want %v", r.Hot, out)
			}
		} else {
			if r.Density == nil || r.Density.Res != out || len(r.Density.Values) != pixels {
				t.Fatalf("raster %+v, want %v", r.Density, out)
			}
			for i, v := range r.Density.Values {
				if !(v >= 0) || math.IsInf(v, 0) {
					t.Fatalf("pixel %d = %g", i, v)
				}
			}
		}
		if req.WorkMap && (r.Work == nil || r.Work.Res != out || len(r.Work.Gap) != pixels) {
			t.Fatalf("work map %+v, want %v", r.Work, out)
		}
	})
}
