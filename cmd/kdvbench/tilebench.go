package main

import (
	"context"
	"fmt"
	"os"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/tiles"
)

// tileServing is the -json report section behind the tile-serving claim
// checkReport verifies: serving a 512² tile from the persistent store (or
// the in-memory LRU) must beat rebuilding it from the engine by a wide
// margin, or the tile pyramid is caching nothing worth keeping. All three times cover the same four
// zoom-1 tiles, so the ratios compare identical work.
type tileServing struct {
	TileSize int `json:"tile_size"`
	Zoom     int `json:"zoom"`
	Tiles    int `json:"tiles"`
	Rounds   int `json:"rounds"`
	// ColdBuildMS sums the first-ever fetch of each tile (full engine
	// render + PNG encode + store append). Cold happens once per tile by
	// definition, so it has no best-of rounds.
	ColdBuildMS float64 `json:"cold_build_ms"`
	// WarmDiskMS and WarmMemoryMS sum the same fetches served from the
	// disk log and the LRU respectively, best-of-rounds.
	WarmDiskMS   float64 `json:"warm_disk_ms"`
	WarmMemoryMS float64 `json:"warm_memory_ms"`
	// DiskSpeedup = cold/warm-disk, which must reach minDiskSpeedup.
	DiskSpeedup   float64 `json:"disk_speedup"`
	MemorySpeedup float64 `json:"memory_speedup"`
}

// measureTileServing benchmarks the three tile-serving tiers over a real
// on-disk store in a temp directory: cold engine builds, then disk hits
// through freshly opened pyramids (restart shape), then LRU hits.
func measureTileServing(pts geom.Points, workers int, eps float64) (*tileServing, error) {
	const (
		tileSize = 512
		zoom     = 1
		rounds   = 3
	)
	dir, err := os.MkdirTemp("", "kdvbench-tiles-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	k, err := quad.New(pts.Coords, pts.Dim,
		quad.WithKernel(quad.Gaussian),
		quad.WithMethod(quad.MethodQuadratic),
		quad.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	store := tiles.OpenStore(dir, nil)
	defer store.Close()
	newPyramid := func() (*tiles.Pyramid, error) {
		return tiles.NewPyramid(context.Background(), tiles.PyramidConfig{
			Tileset:  "bench/crime",
			KDV:      k,
			Eps:      eps,
			TileSize: tileSize,
			MaxZoom:  zoom,
			LogScale: true,
			Store:    store,
			LRU:      tiles.NewLRU(256<<20, nil),
		})
	}

	n := 1 << zoom
	coords := make([]tiles.Coord, 0, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			coords = append(coords, tiles.Coord{Z: zoom, X: x, Y: y})
		}
	}
	// fetchAll serves every tile of the zoom and returns the summed wall
	// clock, failing loudly if any tile came from the wrong tier — a bench
	// that silently measures the wrong path is worse than no bench.
	fetchAll := func(p *tiles.Pyramid, want string) (float64, error) {
		var total time.Duration
		for _, c := range coords {
			start := time.Now()
			_, source, err := p.Tile(context.Background(), c)
			if err != nil {
				return 0, fmt.Errorf("tile %s: %w", c, err)
			}
			total += time.Since(start)
			if source != want {
				return 0, fmt.Errorf("tile %s served from %q, expected %q", c, source, want)
			}
		}
		return float64(total.Microseconds()) / 1e3, nil
	}

	out := &tileServing{TileSize: tileSize, Zoom: zoom, Tiles: len(coords), Rounds: rounds}
	cold, err := newPyramid()
	if err != nil {
		return nil, err
	}
	if out.ColdBuildMS, err = fetchAll(cold, "build"); err != nil {
		return nil, err
	}

	// Warm-disk rounds each reopen the pyramid over the same store with an
	// empty LRU — the restart shape the smoke test drives end to end.
	var warm *tiles.Pyramid
	for r := 0; r < rounds; r++ {
		if warm, err = newPyramid(); err != nil {
			return nil, err
		}
		ms, err := fetchAll(warm, "disk")
		if err != nil {
			return nil, err
		}
		if r == 0 || ms < out.WarmDiskMS {
			out.WarmDiskMS = ms
		}
	}
	// The last warm pyramid's LRU now holds every tile: memory rounds.
	for r := 0; r < rounds; r++ {
		ms, err := fetchAll(warm, "memory")
		if err != nil {
			return nil, err
		}
		if r == 0 || ms < out.WarmMemoryMS {
			out.WarmMemoryMS = ms
		}
	}
	if out.WarmDiskMS > 0 {
		out.DiskSpeedup = out.ColdBuildMS / out.WarmDiskMS
	}
	if out.WarmMemoryMS > 0 {
		out.MemorySpeedup = out.ColdBuildMS / out.WarmMemoryMS
	}
	return out, nil
}
