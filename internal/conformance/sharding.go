package conformance

import (
	"fmt"
	"math"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
)

// shardCounts are the partition widths the additive-merge pass proves —
// the 2-way and 4-way splits the scale-out smoke and chaos scenarios use.
var shardCounts = []int{2, 4}

// buildShardKDV constructs the shard-i-of-count view of the config's
// dataset, pinning (γ, w) so every shard — and the oracle — share one
// bandwidth regardless of which points the shard sees.
func buildShardKDV(cfg *Config, k kernel.Kernel, m quad.Method, gamma, weight float64, i, count int) (*quad.KDV, error) {
	kdv, err := quad.New(cfg.Pts.Coords, 2,
		quad.WithKernel(qKernel(k)),
		quad.WithMethod(m),
		quad.WithBandwidth(gamma, weight),
		quad.WithWorkers(cfg.Workers),
		quad.WithShard(i, count),
	)
	if err != nil {
		return nil, fmt.Errorf("conformance: building %s/%s shard %d/%d: %w", k, m, i, count, err)
	}
	return kdv, nil
}

// mergeAscending sums per-shard rasters pixel-wise in ascending shard
// order — the exact reduction the cluster coordinator applies, so the
// identity checks below speak for the distributed merge too.
func mergeAscending(shards [][]float64) []float64 {
	out := make([]float64, len(shards[0]))
	for _, s := range shards {
		for i, v := range s {
			out[i] += v
		}
	}
	return out
}

// runSharding verifies the additive-merge contract the scale-out
// coordinator (internal/cluster) is built on: a KDV constructed with
// WithShard(i, count) evaluates only its own slice of the points but
// derives bandwidth, weight, and render window from the full dataset, so
// per-shard rasters share a pixel grid and sum — in ascending shard
// order — to the single-process result. Exact-method merges must land
// within accumulation rounding of the oracle; εKDV merges inherit the ε
// guarantee (per-shard error ≤ ε·F_shard sums to ≤ ε·F across shards).
func runSharding(cfg *Config, rep *Report) error {
	k := cfg.Kernels[0]
	res := quad.Resolution{W: cfg.Res.W, H: cfg.Res.H}

	ref, err := quad.New(cfg.Pts.Coords, 2, quad.WithKernel(qKernel(k)))
	if err != nil {
		return fmt.Errorf("conformance: sharding reference build: %w", err)
	}
	gamma, weight := ref.Gamma(), ref.Weight()
	g, err := grid.ForDataset(cfg.Res, cfg.Pts, 0.02)
	if err != nil {
		return fmt.Errorf("conformance: sharding grid: %w", err)
	}
	o, err := oracle.New(cfg.Pts, nil, k, gamma, weight)
	if err != nil {
		return fmt.Errorf("conformance: sharding oracle: %w", err)
	}
	exact := o.Raster(g)

	// The unsharded render pins the window every shard must reproduce:
	// grid alignment is the precondition for pixel-wise merging.
	full, err := buildKDV(cfg, k, quad.MethodExact, gamma, weight, 0)
	if err != nil {
		return err
	}
	fdm, err := full.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: sharding full render: %w", err)
	}

	for _, count := range shardCounts {
		for _, m := range []quad.Method{quad.MethodExact, quad.MethodQuadratic} {
			tag := fmt.Sprintf("%s/%s/shards=%d", k, m, count)
			shards := make([][]float64, count)
			for i := 0; i < count; i++ {
				kdv, err := buildShardKDV(cfg, k, m, gamma, weight, i, count)
				if err != nil {
					return err
				}
				dm, err := kdv.RenderEps(res, cfg.Eps)
				if err != nil {
					return fmt.Errorf("conformance: RenderEps %s shard %d: %w", tag, i, err)
				}
				rep.add(checkWindowsAligned(
					fmt.Sprintf("shard-window/%s/i=%d", tag, i),
					fdm.WindowMin, fdm.WindowMax, dm.WindowMin, dm.WindowMax))
				shards[i] = dm.Values
			}
			merged := mergeAscending(shards)
			if m == quad.MethodExact {
				rep.add(CheckEpsRaster("shard-merge/"+tag, merged, exact, oracle.ExactTol))
			} else {
				rep.add(CheckEpsRaster("shard-merge/"+tag, merged, exact, cfg.Eps))
			}
		}
	}

	// Sharded rendering is deterministic: a freshly built identical shard
	// reproduces its raster bit-for-bit. This is what makes the cluster's
	// k-of-n partial merges repeatable across retries and hedged replays.
	a, err := buildShardKDV(cfg, k, quad.MethodQuadratic, gamma, weight, 0, 2)
	if err != nil {
		return err
	}
	b, err := buildShardKDV(cfg, k, quad.MethodQuadratic, gamma, weight, 0, 2)
	if err != nil {
		return err
	}
	adm, err := a.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: sharding determinism render: %w", err)
	}
	bdm, err := b.RenderEps(res, cfg.Eps)
	if err != nil {
		return fmt.Errorf("conformance: sharding determinism render: %w", err)
	}
	rep.add(CheckRastersIdentical(
		fmt.Sprintf("shard-determinism/%s/quad/i=0-of-2", k), adm.Values, bdm.Values))
	return nil
}

// checkWindowsAligned asserts a shard render reproduced the unsharded
// window bit-for-bit. WithShard derives the window from the full dataset
// precisely so this holds; a drift here would silently misalign the
// pixel grids being summed.
func checkWindowsAligned(name string, fullMin, fullMax, shardMin, shardMax [2]float64) Check {
	for d := 0; d < 2; d++ {
		if math.Float64bits(fullMin[d]) != math.Float64bits(shardMin[d]) ||
			math.Float64bits(fullMax[d]) != math.Float64bits(shardMax[d]) {
			return Check{Name: name, Detail: fmt.Sprintf(
				"shard window [%v, %v] != full window [%v, %v]",
				shardMin, shardMax, fullMin, fullMax)}
		}
	}
	return Check{Name: name, Pass: true}
}
