package main

import (
	"errors"
	"fmt"
)

// metricSpec is one reported metric: its name, unit and how a finished
// run computes it. A metric that the run's workload does not exercise
// returns an error saying why; the traced run prints it as absent.
type metricSpec struct {
	name, unit string
	value      func(b *bench) (float64, error)
}

var errNotExercised = errors.New("not exercised by this workload")

// latencyClass returns the untraced latency-class samples, corrected or
// raw.
func (b *bench) latencyClass(raw bool) []float64 {
	var xs []float64
	for _, s := range b.lat {
		if s.traced {
			continue
		}
		if raw {
			xs = append(xs, s.rawMs)
		} else {
			xs = append(xs, s.corrMs)
		}
	}
	return xs
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", func(b *bench) (float64, error) {
		if len(b.setup) == 0 {
			return 0, errors.New("no set-up was timed")
		}
		return median(b.setup), nil
	}},
	{"latency_ms_p50", "ms", func(b *bench) (float64, error) { return percentile(b.latencyClass(false), 0.5) }},
	{"latency_ms_p90", "ms", func(b *bench) (float64, error) { return percentile(b.latencyClass(false), 0.9) }},
	{"throughput_rps", "1/s", func(b *bench) (float64, error) {
		if b.tputSec <= 0 {
			return 0, errors.New("no throughput was timed")
		}
		return b.tputN / b.tputSec, nil
	}},
	{"rss_peak_mb", "MB", func(b *bench) (float64, error) { return b.rssMB, nil }},
}

// counter returns a program counter's delta over the timed phases.
func counter(name string, match ...string) func(b *bench) (float64, error) {
	return func(b *bench) (float64, error) { return b.counts.sum(name, match...), nil }
}

// perPixel divides a render work counter by the pixels rendered.
func perPixel(name string) func(b *bench) (float64, error) {
	return func(b *bench) (float64, error) {
		px := b.counts.sum("kdv_render_pixels_total")
		if px == 0 {
			return 0, errNotExercised
		}
		return b.counts.sum(name) / px, nil
	}
}

// layerP50 is a replayed layer call's strict median.
func layerP50(span string) func(b *bench) (float64, error) {
	return func(b *bench) (float64, error) {
		if len(b.lt.batch[span]) == 0 {
			return 0, fmt.Errorf("%s: %w", span, errNotExercised)
		}
		return b.lt.p50(span)
	}
}

// layerMean is a replayed layer call's mean per-call time.
func layerMean(span string) func(b *bench) (float64, error) {
	return func(b *bench) (float64, error) {
		v, ok := b.lt.meanCall(span)
		if !ok {
			return 0, fmt.Errorf("%s: %w", span, errNotExercised)
		}
		return v, nil
	}
}

// layerMedian is the median of a replayed call timed once per set-up or
// cache miss.
func layerMedian(span string) func(b *bench) (float64, error) {
	return func(b *bench) (float64, error) {
		v := b.lt.perCall[span]
		if len(v) == 0 {
			return 0, fmt.Errorf("%s: %w", span, errNotExercised)
		}
		return median(v), nil
	}
}

// tileLookupShare is the share of tile lookups one cache level answered.
func tileLookupShare(level string) func(b *bench) (float64, error) {
	return func(b *bench) (float64, error) {
		c := b.counts
		mem := c.sum("kdv_tiles_hits_total", `level="memory"`)
		disk := c.sum("kdv_tiles_hits_total", `level="disk"`)
		all := mem + disk + c.sum("kdv_tiles_misses_total") + c.sum("kdv_tiles_coalesced_total")
		if all == 0 {
			return 0, errNotExercised
		}
		if level == "memory" {
			return mem / all, nil
		}
		return disk / all, nil
	}
}

// perLayer are the metrics of a traced run: layer times from the replayed
// spans, counts from the program's /metrics deltas, process and host
// figures from the run's untraced share.
var perLayer = []metricSpec{
	{"serve.self_ms_p50", "ms", func(b *bench) (float64, error) { return residualP50(b.lt.self) }},
	{"serve.admission_wait_ms_mean", "ms", func(b *bench) (float64, error) {
		n := b.counts.sum("kdv_admission_queue_wait_seconds_count")
		if n == 0 {
			return 0, errNotExercised
		}
		return 1000 * b.counts.sum("kdv_admission_queue_wait_seconds_sum") / n, nil
	}},
	{"serve.kdv_cache_hit_share", "ratio", func(b *bench) (float64, error) {
		c := b.counts
		hits := c.sum("kdv_cache_hits_total")
		all := hits + c.sum("kdv_cache_misses_total") + c.sum("kdv_cache_coalesced_total")
		if all == 0 {
			return 0, errNotExercised
		}
		return hits / all, nil
	}},
	{"serve.kdv_cache_builds", "count", counter("kdv_cache_misses_total")},
	{"serve.kdv_cache_coalesced", "count", counter("kdv_cache_coalesced_total")},
	{"serve.kdv_cache_evictions", "count", counter("kdv_cache_evictions_total")},
	{"serve.resp_kb_per_req", "KB", func(b *bench) (float64, error) {
		return ratio(float64(b.respBytes), float64(b.requests)) / 1024, nil
	}},

	{"quad.build_ms", "ms", layerMedian("quad.new")},
	{"quad.render_ms_p50", "ms", layerP50("quad.render")},
	{"quad.shared_frontier_ms", "ms", func(b *bench) (float64, error) {
		n := len(b.lt.attrs["quad.render"])
		if n == 0 {
			return 0, errNotExercised
		}
		return b.lt.attrSum("quad.render", "shared_ms") / float64(n), nil
	}},
	{"quad.pixels", "count", counter("kdv_render_pixels_total")},
	{"quad.nodes_per_px", "evals/px", func(b *bench) (float64, error) {
		px := b.counts.sum("kdv_render_pixels_total")
		if px == 0 {
			return 0, errNotExercised
		}
		return (b.counts.sum("kdv_render_node_evals_total") + b.counts.sum("kdv_render_shared_node_evals_total")) / px, nil
	}},
	{"quad.shared_evals_per_px", "evals/px", perPixel("kdv_render_shared_node_evals_total")},
	{"quad.leaf_scans_per_px", "scans/px", perPixel("kdv_render_leaf_scans_total")},
	{"quad.points_per_px", "points/px", perPixel("kdv_render_points_scanned_total")},
	{"quad.pops_per_px", "pops/px", perPixel("kdv_render_queue_pops_total")},
	{"quad.promotions", "count", counter("kdv_render_frontier_promotions_total")},

	{"dataset.generate_ms", "ms", layerMedian("dataset.generate")},

	{"render.colormap_ms_p50", "ms", layerP50("render.colormap")},
	{"render.encode_ms_p50", "ms", layerP50("render.encode")},
	{"render.png_bytes_per_px", "B/px", func(b *bench) (float64, error) {
		if b.pngPx == 0 {
			return 0, errNotExercised
		}
		return float64(b.pngBytes) / float64(b.pngPx), nil
	}},

	{"tiles.lookup_ms_p50.memory", "ms", layerP50("tiles.lookup.memory")},
	{"tiles.lookup_ms_p50.disk", "ms", layerP50("tiles.lookup.disk")},
	{"tiles.build_ms_p50", "ms", layerP50("tiles.build")},
	{"tiles.store_put_ms", "ms", layerMean("tiles.store.put")},
	{"tiles.store_get_ms", "ms", layerMean("tiles.store.get")},
	{"tiles.builds", "count", counter("kdv_tiles_builds_total", `outcome="ok"`)},
	{"tiles.coalesced", "count", counter("kdv_tiles_coalesced_total")},
	{"tiles.memory_hit_share", "ratio", tileLookupShare("memory")},
	{"tiles.disk_hit_share", "ratio", tileLookupShare("disk")},
	{"tiles.not_modified", "count", counter("kdv_tiles_not_modified_total")},
	{"tiles.store_bytes_per_tile", "B", func(b *bench) (float64, error) {
		w := b.storeCounts.sum("kdv_tiles_store_writes_total")
		if w == 0 {
			return 0, errNotExercised
		}
		return b.storeCounts.sum("kdv_tiles_store_bytes") / w, nil
	}},

	{"audit.checks", "count", counter("kdv_audit_checks_total")},
	{"audit.pixels", "count", counter("kdv_audit_pixels_total")},
	{"audit.dropped", "count", counter("kdv_audit_dropped_total")},
	{"audit.violations", "count", counter("kdv_audit_violations_total")},
	{"audit.oracle_us_per_px", "us/px", func(b *bench) (float64, error) {
		v, ok := b.lt.meanCall("audit.oracle")
		if !ok {
			return 0, fmt.Errorf("audit.oracle: %w", errNotExercised)
		}
		return 1000 * v / oraclePixels, nil
	}},

	{"runtime.gc_cycles", "count", func(b *bench) (float64, error) { return float64(b.gcCycles), nil }},
	{"runtime.gc_pause_ms", "ms", func(b *bench) (float64, error) { return ms(b.gcPause), nil }},
	{"runtime.alloc_kb_per_req", "KB", func(b *bench) (float64, error) {
		return ratio(float64(b.alloc), float64(b.untraced)) / 1024, nil
	}},

	{"host.steal_s", "s", func(b *bench) (float64, error) { return stealSeconds(b.steal.total), nil }},
	{"host.ref_ms", "ms", func(b *bench) (float64, error) { return median(b.refMs), nil }},
	{"host.raw_latency_ms_p50", "ms", func(b *bench) (float64, error) { return percentile(b.latencyClass(true), 0.5) }},
	{"host.cpu_ms_per_req", "ms", func(b *bench) (float64, error) {
		return ratio(ms(b.cpu), float64(b.untraced)), nil
	}},

	{"fail_share", "ratio", func(b *bench) (float64, error) {
		return ratio(float64(b.failed), float64(b.attempted)), nil
	}},
	{"trace.overhead_share", "ratio", func(b *bench) (float64, error) {
		var on, off []float64
		for _, s := range b.lat {
			if s.traced {
				on = append(on, s.corrMs)
			} else {
				off = append(off, s.corrMs)
			}
		}
		pOn, err := percentile(on, 0.5)
		if err != nil {
			return 0, fmt.Errorf("traced share: %w", err)
		}
		pOff, err := percentile(off, 0.5)
		if err != nil {
			return 0, fmt.Errorf("untraced share: %w", err)
		}
		return pOn/pOff - 1, nil
	}},
}
