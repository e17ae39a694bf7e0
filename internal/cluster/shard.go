// Package cluster is the horizontal scale-out layer behind kdvserve: a
// coordinator that partitions /render work across N worker processes by
// data shard and merges the per-shard rasters additively, and the wire
// format of the internal shard-render API between them. The workers
// themselves are serving-layer servers (serve.Server.ShardHandler).
//
// Kernel densities are additive — Σ over a partition of the dataset
// composes exactly, and per-shard QUAD/KARL quadratic bounds sum to valid
// global bounds — so the fan-out preserves the paper's ε guarantee: each
// worker renders its Z-order shard (quad.WithShard) against the full
// dataset's window and bandwidth, and the coordinator sums rasters pixel by
// pixel in shard order.
//
// The robustness core lives in the coordinator: per-worker circuit breakers
// (closed/open/half-open with failure-rate tripping), bounded retries with
// jittered exponential backoff and per-attempt timeouts derived from the
// request deadline, hedged requests against stragglers (second attempt
// after a latency-quantile delay, first success wins), consistent-hash
// routing for cache affinity, and graceful degradation — when a shard stays
// unreachable past budget the merged raster of the live shards is served
// with X-KDV-Complete: false and X-KDV-Shards: k/n.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	quad "github.com/quadkdv/quad"
)

// ShardRenderPath is the worker's internal shard-render endpoint. It takes
// the serving layer's /render query parameters plus shard=i/n.
const ShardRenderPath = "/internal/shard-render"

// Response headers of the shard-render API.
const (
	headerShard  = "X-KDV-Shard"        // "i/n"
	headerRes    = "X-KDV-Res"          // "WxH"
	headerWindow = "X-KDV-Window"       // "minX,minY,maxX,maxY"
	headerStats  = "X-KDV-Render-Stats" // RenderStats as JSON
)

// rasterContentType is the wire format of a shard raster: W·H little-endian
// float64 density values, row-major, pixel (0,0) lower-left.
const rasterContentType = "application/x-kdv-raster"

// ShardSpec identifies one shard of a Count-way Z-order partition.
type ShardSpec struct {
	Index, Count int
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Validate reports whether the spec is a well-formed partition member.
func (s ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("cluster: shard count %d must be at least 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("cluster: shard index %d out of range [0, %d)", s.Index, s.Count)
	}
	return nil
}

// ParseShardSpec parses the "i/n" form used on the wire.
func ParseShardSpec(v string) (ShardSpec, error) {
	i, n, ok := strings.Cut(v, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("cluster: bad shard %q (want i/n)", v)
	}
	idx, err := strconv.Atoi(i)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("cluster: bad shard index %q", i)
	}
	cnt, err := strconv.Atoi(n)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("cluster: bad shard count %q", n)
	}
	s := ShardSpec{Index: idx, Count: cnt}
	return s, s.Validate()
}

// shardQuery encodes one shard of req as the shard-render query string.
func shardQuery(req RenderRequest, spec ShardSpec) string {
	v := make([]string, 0, 9)
	v = append(v,
		"dataset="+req.Dataset,
		"n="+strconv.Itoa(req.N),
		"seed="+strconv.FormatInt(req.Seed, 10),
		"kernel="+req.Kernel.String(),
		"method="+req.Method.String(),
		"eps="+strconv.FormatFloat(req.Eps, 'g', -1, 64),
		"res="+req.Res.String(),
		"shard="+spec.String(),
	)
	if !req.Window.IsZero() {
		v = append(v, fmt.Sprintf("bbox=%g,%g,%g,%g",
			req.Window.MinX, req.Window.MinY, req.Window.MaxX, req.Window.MaxY))
	}
	return strings.Join(v, "&")
}

// WriteShardRaster answers a shard-render request with the rendered shard:
// the raw raster in the wire format plus the headers the coordinator's
// decoder (readShardRaster) reads back.
func WriteShardRaster(w http.ResponseWriter, spec ShardSpec, dm *quad.DensityMap, st quad.RenderStats) {
	statsJSON, _ := json.Marshal(st) // a struct of ints and durations always marshals
	h := w.Header()
	h.Set("Content-Type", rasterContentType)
	h.Set(headerShard, spec.String())
	h.Set(headerRes, dm.Res.String())
	h.Set(headerWindow, fmt.Sprintf("%.17g,%.17g,%.17g,%.17g",
		dm.WindowMin[0], dm.WindowMin[1], dm.WindowMax[0], dm.WindowMax[1]))
	h.Set(headerStats, string(statsJSON))
	h.Set("Content-Length", strconv.Itoa(8*len(dm.Values)))
	buf := make([]byte, 8*len(dm.Values))
	for i, v := range dm.Values {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, _ = w.Write(buf) // a failed write means the coordinator is gone
}

// readShardRaster decodes a 200 shard-render response of the given
// resolution: the raster body, its window and its render stats.
func readShardRaster(resp *http.Response, res quad.Resolution) (*shardResult, error) {
	want := 8 * res.W * res.H
	buf, err := io.ReadAll(io.LimitReader(resp.Body, int64(want)+1))
	if err != nil {
		return nil, err
	}
	if len(buf) != want {
		return nil, fmt.Errorf("raster is %d bytes, want %d", len(buf), want)
	}
	out := &shardResult{values: make([]float64, res.W*res.H)}
	for i := range out.values {
		out.values[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	if out.windowMin, out.windowMax, err = parseWindowHeader(resp.Header.Get(headerWindow)); err != nil {
		return nil, err
	}
	if v := resp.Header.Get(headerStats); v != "" {
		if err := json.Unmarshal([]byte(v), &out.stats); err != nil {
			return nil, fmt.Errorf("bad %s header: %w", headerStats, err)
		}
	}
	return out, nil
}

func parseWindowHeader(v string) (mn, mx [2]float64, err error) {
	var vals [4]float64
	parts := strings.Split(v, ",")
	if len(parts) != 4 {
		return mn, mx, fmt.Errorf("bad %s header %q", headerWindow, v)
	}
	for i, s := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &vals[i]); err != nil {
			return mn, mx, fmt.Errorf("bad %s header %q", headerWindow, v)
		}
	}
	return [2]float64{vals[0], vals[1]}, [2]float64{vals[2], vals[3]}, nil
}
