package conformance

import (
	"bytes"
	"context"
	"fmt"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/render"
)

// The tile-pyramid stitch pass: an XYZ zoom level rendered tile by tile
// through the sub-rect entry point, stitched back together, must be
// bit-identical (Float64bits) to one full-raster render at that zoom's
// resolution — for every method × kernel. This is the correctness contract
// of the /tiles serving layer: clients assemble mosaics from independently
// rendered (and independently cached) tiles, and a seam would be a wrong
// answer, not a cosmetic blemish. The identity is exact because a tile's
// grid is an offset view sharing the full raster's window and steps (every
// query point is the same float64) and tile origins stay aligned to the
// engine's pixel-tile lattice (so tile-shared frontiers see the same
// 16×16 blocks); PR8's flat-engine determinism supplies the rest. A
// PNG-byte check on the representative combo additionally proves the
// encoded artifact matches (fixed color scale), and a mutation self-test
// plants an off-by-one tile origin and asserts the check catches it.

// tilePassT is the tile edge used by the pass — the engine's pixel-tile
// lattice size, so every tile origin is aligned.
const tilePassT = 16

// tilePassZooms are the two pyramid levels the pass stitches.
var tilePassZooms = []int{1, 2}

// runTiles executes the stitch pass. With cfg.TileQuick the matrix is cut
// to the first kernel × MethodQuadratic (both zooms still run — the
// cross-tile seams are the point of the pass).
func runTiles(cfg *Config, rep *Report) error {
	kernels := cfg.Kernels
	methods := cfg.Methods
	if cfg.TileQuick {
		kernels = kernels[:1]
		methods = []quad.Method{quad.MethodQuadratic}
	}
	for _, k := range kernels {
		for _, m := range methods {
			if m == quad.MethodLinear && !k.HasLinearBounds() {
				continue
			}
			kdv, err := buildTileKDV(cfg, k, m)
			if err != nil {
				return err
			}
			for _, z := range tilePassZooms {
				tag := fmt.Sprintf("%s/%s/z=%d", k, m, z)
				if err := stitchCheck(cfg, rep, kdv, z, tag); err != nil {
					return err
				}
			}
		}
	}
	if err := tilePNGCheck(cfg, rep, kernels[0]); err != nil {
		return err
	}
	return tileMutationCheck(cfg, rep, kernels[0])
}

func buildTileKDV(cfg *Config, k kernel.Kernel, m quad.Method) (*quad.KDV, error) {
	kdv, err := quad.New(cfg.Pts.Coords, 2,
		quad.WithKernel(qKernel(k)),
		quad.WithMethod(m),
		quad.WithWorkers(cfg.Workers),
		quad.WithZOrderGuarantee(cfg.Eps, 0.2),
	)
	if err != nil {
		return nil, fmt.Errorf("conformance: tile build %s/%s: %w", k, m, err)
	}
	return kdv, nil
}

// renderZoom renders the full conceptual raster of zoom z (the stitch
// reference).
func renderZoom(cfg *Config, kdv *quad.KDV, z int) (*quad.DensityMap, quad.Resolution, error) {
	n := 1 << z
	full := quad.Resolution{W: n * tilePassT, H: n * tilePassT}
	dm, err := kdv.RenderEps(full, cfg.Eps)
	return dm, full, err
}

// stitchCheck renders every tile of zoom z, stitches them, and asserts
// bit-identity with the full render.
func stitchCheck(cfg *Config, rep *Report, kdv *quad.KDV, z int, tag string) error {
	ref, full, err := renderZoom(cfg, kdv, z)
	if err != nil {
		return fmt.Errorf("conformance: tile reference render %s: %w", tag, err)
	}
	stitched := make([]float64, full.W*full.H)
	n := 1 << z
	for ty := 0; ty < n; ty++ {
		for tx := 0; tx < n; tx++ {
			sub := quad.PixelRect{
				X0: tx * tilePassT, X1: (tx + 1) * tilePassT,
				Y0: ty * tilePassT, Y1: (ty + 1) * tilePassT,
			}
			r, err := kdv.Render(context.Background(), quad.Request{Res: full, Sub: sub, Eps: cfg.Eps})
			if err != nil {
				return fmt.Errorf("conformance: tile render %s %d/%d: %w", tag, tx, ty, err)
			}
			for y := 0; y < tilePassT; y++ {
				copy(stitched[(sub.Y0+y)*full.W+sub.X0:(sub.Y0+y)*full.W+sub.X1],
					r.Density.Values[y*tilePassT:(y+1)*tilePassT])
			}
		}
	}
	rep.add(CheckRastersIdentical("tiles/stitch/"+tag, stitched, ref.Values))
	return nil
}

// tilePNGCheck proves the encoded artifact identity on the representative
// combo: with a color scale fixed from the zoom-0 base render (what the
// serving pyramid does), each tile's PNG bytes equal the PNG of the same
// crop of the full render.
func tilePNGCheck(cfg *Config, rep *Report, k kernel.Kernel) error {
	kdv, err := buildTileKDV(cfg, k, quad.MethodQuadratic)
	if err != nil {
		return err
	}
	base, err := kdv.RenderEps(quad.Resolution{W: tilePassT, H: tilePassT}, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: tile png base render: %w", err)
	}
	bv := &grid.Values{Res: grid.Resolution{W: tilePassT, H: tilePassT}, Data: base.Values}
	lo, hi := bv.MinMax()

	const z = 1
	ref, full, err := renderZoom(cfg, kdv, z)
	if err != nil {
		return fmt.Errorf("conformance: tile png reference render: %w", err)
	}
	name := fmt.Sprintf("tiles/png/%s/quad/z=%d", k, z)
	n := 1 << z
	for ty := 0; ty < n; ty++ {
		for tx := 0; tx < n; tx++ {
			sub := quad.PixelRect{
				X0: tx * tilePassT, X1: (tx + 1) * tilePassT,
				Y0: ty * tilePassT, Y1: (ty + 1) * tilePassT,
			}
			r, err := kdv.Render(context.Background(), quad.Request{Res: full, Sub: sub, Eps: cfg.Eps})
			if err != nil {
				return fmt.Errorf("conformance: tile png render %d/%d: %w", tx, ty, err)
			}
			tilePNG, err := encodeFixed(r.Density.Values, tilePassT, tilePassT, lo, hi)
			if err != nil {
				return err
			}
			crop := make([]float64, tilePassT*tilePassT)
			for y := 0; y < tilePassT; y++ {
				copy(crop[y*tilePassT:(y+1)*tilePassT],
					ref.Values[(sub.Y0+y)*full.W+sub.X0:(sub.Y0+y)*full.W+sub.X1])
			}
			cropPNG, err := encodeFixed(crop, tilePassT, tilePassT, lo, hi)
			if err != nil {
				return err
			}
			if !bytes.Equal(tilePNG, cropPNG) {
				rep.add(Check{Name: name, Detail: fmt.Sprintf(
					"tile %d/%d PNG (%d bytes) differs from full-render crop PNG (%d bytes)",
					tx, ty, len(tilePNG), len(cropPNG))})
				return nil
			}
		}
	}
	rep.add(Check{Name: name, Pass: true})
	return nil
}

func encodeFixed(vals []float64, w, h int, lo, hi float64) ([]byte, error) {
	v := &grid.Values{Res: grid.Resolution{W: w, H: h}, Data: vals}
	var buf bytes.Buffer
	if err := render.EncodePNG(&buf, render.HeatmapFixed(v, lo, hi, render.Log)); err != nil {
		return nil, fmt.Errorf("conformance: tile png encode: %w", err)
	}
	return buf.Bytes(), nil
}

// tileMutationCheck is the pass's self-test: a tile rendered from an
// off-by-one origin (the planted bug: a bbox computed one pixel off) must
// NOT pass the identity check against the true crop — if it did, the pass
// has no teeth.
func tileMutationCheck(cfg *Config, rep *Report, k kernel.Kernel) error {
	kdv, err := buildTileKDV(cfg, k, quad.MethodQuadratic)
	if err != nil {
		return err
	}
	ref, full, err := renderZoom(cfg, kdv, 1)
	if err != nil {
		return fmt.Errorf("conformance: tile mutation reference: %w", err)
	}
	// The planted off-by-one: tile (0,0) addressed one pixel east/north.
	bad, err := kdv.Render(context.Background(), quad.Request{Res: full, Eps: cfg.Eps,
		Sub: quad.PixelRect{X0: 1, Y0: 1, X1: tilePassT + 1, Y1: tilePassT + 1}})
	if err != nil {
		return fmt.Errorf("conformance: tile mutation render: %w", err)
	}
	crop := make([]float64, tilePassT*tilePassT)
	for y := 0; y < tilePassT; y++ {
		copy(crop[y*tilePassT:(y+1)*tilePassT], ref.Values[y*full.W:y*full.W+tilePassT])
	}
	verdict := CheckRastersIdentical("", crop, bad.Density.Values)
	c := Check{Name: fmt.Sprintf("tiles/mutation/%s/off-by-one-rejected", k), Pass: !verdict.Pass}
	if verdict.Pass {
		c.Detail = "an off-by-one tile origin passed the stitch identity check — the pass cannot catch bbox addressing bugs"
	}
	rep.add(c)
	return nil
}
