package quad

import (
	"fmt"
	"image"
	"io"

	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/render"
)

// WorkMapLayer selects one diagnostic raster of a WorkMap.
type WorkMapLayer string

const (
	// WorkMapDepth is the per-pixel refinement depth: priority-queue pops
	// needed to settle the pixel. Bright regions are where the method's
	// bounds are loose.
	WorkMapDepth WorkMapLayer = "depth"
	// WorkMapNodeEvals is the per-pixel bound-function evaluation count —
	// the paper's primary work measure, per pixel instead of aggregated.
	WorkMapNodeEvals WorkMapLayer = "evals"
	// WorkMapGap is the residual bound gap ub−lb each pixel settled at —
	// zero where the classification/estimate was decided with slack, larger
	// where the termination test barely fired. It is the direct image of
	// bound tightness (QUAD's quadratic bounds shrink it fastest).
	WorkMapGap WorkMapLayer = "gap"
)

// WorkMapLayers lists the valid layers in presentation order.
func WorkMapLayers() []WorkMapLayer {
	return []WorkMapLayer{WorkMapDepth, WorkMapNodeEvals, WorkMapGap}
}

// ParseWorkMapLayer parses a layer name.
func ParseWorkMapLayer(s string) (WorkMapLayer, error) {
	switch WorkMapLayer(s) {
	case WorkMapDepth, WorkMapNodeEvals, WorkMapGap:
		return WorkMapLayer(s), nil
	}
	return "", fmt.Errorf("quad: bad work-map layer %q (depth, evals, or gap)", s)
}

// WorkMap is a set of diagnostic rasters recorded alongside a render: for
// every pixel, how hard the bound engine worked to settle it and how tight
// the bounds were when it did. Where a DensityMap shows the data, a WorkMap
// shows the algorithm — the per-pixel view of the paper's Section 7 work
// measurements, and the image that makes bound tightness visible: a QUAD
// work map is dimmer than a KARL or MinMax one over the same data because
// the quadratic bounds settle pixels with fewer evaluations.
//
// Pixels decided wholesale by a shared tile envelope (τKDV Decided tiles)
// record zero depth, zero evaluations, and zero gap — zero per-pixel work
// is exactly what the shared phase bought.
type WorkMap struct {
	Res                  Resolution
	Depth                []float64
	Evals                []float64
	Gap                  []float64
	WindowMin, WindowMax [2]float64
}

func newWorkMap(res Resolution, winMin, winMax [2]float64) *WorkMap {
	n := res.W * res.H
	return &WorkMap{
		Res:       res,
		Depth:     make([]float64, n),
		Evals:     make([]float64, n),
		Gap:       make([]float64, n),
		WindowMin: winMin,
		WindowMax: winMax,
	}
}

// record stores one pixel's settle statistics. Each pixel is written by
// exactly one render worker, so no synchronization is needed (same
// discipline as the value raster).
func (w *WorkMap) record(idx int, st engine.Stats) {
	w.Depth[idx] = float64(st.Iterations)
	w.Evals[idx] = float64(st.NodesEvaluated)
	w.Gap[idx] = st.Gap()
}

// Layer returns the raster of one layer.
func (w *WorkMap) Layer(layer WorkMapLayer) ([]float64, error) {
	switch layer {
	case WorkMapDepth:
		return w.Depth, nil
	case WorkMapNodeEvals:
		return w.Evals, nil
	case WorkMapGap:
		return w.Gap, nil
	}
	return nil, fmt.Errorf("quad: bad work-map layer %q", layer)
}

// Image renders one layer through the heat ramp (log scale — work
// distributions are as skewed as density ones).
func (w *WorkMap) Image(layer WorkMapLayer) (*image.RGBA, error) {
	vals, err := w.Layer(layer)
	if err != nil {
		return nil, err
	}
	v := &grid.Values{Res: grid.Resolution{W: w.Res.W, H: w.Res.H}, Data: vals}
	return render.Heatmap(v, render.Log), nil
}

// EncodePNG writes one layer as a PNG.
func (w *WorkMap) EncodePNG(out io.Writer, layer WorkMapLayer) error {
	img, err := w.Image(layer)
	if err != nil {
		return err
	}
	return render.EncodePNG(out, img)
}

// SavePNG writes one layer as a PNG file.
func (w *WorkMap) SavePNG(path string, layer WorkMapLayer) error {
	img, err := w.Image(layer)
	if err != nil {
		return err
	}
	return render.SavePNG(path, img)
}

// Totals sums the per-pixel layers — cross-checkable against the
// RenderStats counters returned by the same render.
func (w *WorkMap) Totals() (depth, evals int, gap float64) {
	for _, v := range w.Depth {
		depth += int(v)
	}
	for _, v := range w.Evals {
		evals += int(v)
	}
	for _, v := range w.Gap {
		gap += v
	}
	return depth, evals, gap
}
