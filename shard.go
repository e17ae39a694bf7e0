package quad

import (
	"fmt"
	"sort"

	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/zorder"
)

// WithShard restricts the KDV to shard index of a count-way partition of the
// dataset — the engine primitive behind horizontal scale-out. The partition
// is a contiguous range split of the Z-order (Morton) curve over the full
// dataset's bounding rectangle, so shards are spatially coherent and the
// split is deterministic for a given dataset.
//
// Kernel densities are additive: for any query q,
//
//	F_P(q) = Σ_i F_{P_i}(q)
//
// over a partition {P_i} of P. To make per-shard renders compose exactly to
// the full-dataset render, a sharded KDV derives everything global from the
// FULL dataset before restricting to the shard's points:
//
//   - bandwidth: Scott's/Silverman's rule (and the automatic per-point
//     weight 1/n or 1/Σw) is computed over all points, not the shard;
//   - render window: a zero Window renders the full dataset's bounding box
//     plus margin, not the shard's, so per-shard rasters align pixel for
//     pixel and can be merged by addition.
//
// Per-shard εKDV rasters each satisfy |v_i − F_{P_i}| ≤ ε·F_{P_i}, so their
// sum satisfies the same relative-ε guarantee against the full density —
// the paper's contract survives the fan-out.
//
// count must be at least 1 and at most the dataset cardinality (every shard
// must be non-empty); index must be in [0, count). WithShard is incompatible
// with MethodZOrder, whose sampling guarantee is dimensioned for the full
// dataset. WithShard(_, 1) is the identity partition: the full dataset with
// the shard bookkeeping attached.
//
// Each shard indexes only its own point slice, and a shard's render is
// deterministic: the ledger pins per-shard raster bits (2-, 3- and 4-way)
// and a 3-way merge, so distributed merges never mix engine behaviors.
func WithShard(index, count int) Option {
	return func(c *config) { c.sharded, c.shardIndex, c.shardCount = true, index, count }
}

// Shard reports the shard this KDV was restricted to and the partition
// width. An unsharded KDV reports (0, 1).
func (k *KDV) Shard() (index, count int) {
	if !k.cfg.sharded {
		return 0, 1
	}
	return k.cfg.shardIndex, k.cfg.shardCount
}

// shardRange returns the half-open index range [lo, hi) of shard index in a
// count-way split of n elements, distributing the remainder over the first
// n mod count shards so sizes differ by at most one.
func shardRange(n, index, count int) (lo, hi int) {
	q, r := n/count, n%count
	lo = index*q + min(index, r)
	hi = lo + q
	if index < r {
		hi++
	}
	return lo, hi
}

// zorderPermutation returns the dataset's point indices sorted along the
// Z-order curve over rect. Ties (points quantizing to the same Morton code)
// break by original index, so the permutation — and therefore every shard —
// is deterministic.
func zorderPermutation(pts geom.Points, rect geom.Rect) []int {
	n := pts.Len()
	codes := make([]uint64, n)
	for i := 0; i < n; i++ {
		codes[i] = zorder.Code(pts.At(i), rect)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ca, cb := codes[perm[a]], codes[perm[b]]
		if ca != cb {
			return ca < cb
		}
		return perm[a] < perm[b]
	})
	return perm
}

// applyShard validates the configured shard and replaces pts/weights with
// the shard's Z-order range, returning the full dataset's bounding rect for
// window derivation. Called by newKDV after the bandwidth (and the weight
// normalization) has been fixed from the full dataset.
func applyShard(cfg *config, pts geom.Points, weights []float64) (geom.Points, []float64, geom.Rect, error) {
	index, count := cfg.shardIndex, cfg.shardCount
	if count < 1 {
		return pts, weights, geom.Rect{}, fmt.Errorf("quad: shard count %d must be at least 1", count)
	}
	if index < 0 || index >= count {
		return pts, weights, geom.Rect{}, fmt.Errorf("quad: shard index %d out of range [0, %d)", index, count)
	}
	if cfg.method == MethodZOrder {
		return pts, weights, geom.Rect{}, fmt.Errorf("quad: WithShard is incompatible with MethodZOrder (the sampling guarantee is dimensioned for the full dataset)")
	}
	if pts.Dim != 2 {
		return pts, weights, geom.Rect{}, fmt.Errorf("quad: WithShard requires a 2-d dataset (Z-order split), got %d-d", pts.Dim)
	}
	n := pts.Len()
	if count > n {
		return pts, weights, geom.Rect{}, fmt.Errorf("quad: %d shards over %d points would leave empty shards", count, n)
	}
	rect := geom.BoundingRect(pts)
	perm := zorderPermutation(pts, rect)
	lo, hi := shardRange(n, index, count)
	coords := make([]float64, 0, (hi-lo)*pts.Dim)
	var ws []float64
	if weights != nil {
		ws = make([]float64, 0, hi-lo)
	}
	for _, pi := range perm[lo:hi] {
		coords = append(coords, pts.At(pi)...)
		if weights != nil {
			ws = append(ws, weights[pi])
		}
	}
	return geom.NewPoints(coords, pts.Dim), ws, rect, nil
}
