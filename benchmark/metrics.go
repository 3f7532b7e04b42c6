package main

import (
	"fmt"
	"slices"
)

// metricDef declares one metric of BENCHMARK.json. The declarations here
// and that file must agree; a test compares them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metrics: defined on every workload, gated by a bound. The
// per-class latencies a single workload lacks cannot be gated on all four,
// so they are per-layer ("lat.*") and the gates are the class-agnostic ones.
// Tail latency and peak RSS are per-layer too: on unchanged code they moved
// by more than any bound the driver allows (see README.md).
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// opGroups maps the paper's Fig 3 operator families to operator names as
// exec.OpStat reports them.
var opGroups = []struct {
	metric string
	ops    []string
}{
	{"op.seek_share", []string{"NodeByIdSeek", "MultiSeek", "NodeScan"}},
	{"op.expand_share", []string{"Expand", "Expand(fused-filter)", "SeekExpand(fused)"}},
	{"op.varexpand_share", []string{"VarLengthExpand"}},
	{"op.intersect_share", []string{"ExpandInto", "ExpandIntersect"}},
	{"op.join_share", []string{"HashJoin"}},
	{"op.filter_share", []string{"Filter"}},
	{"op.project_share", []string{"Project", "ProjectExpr", "Rename"}},
	{"op.aggregate_share", []string{"Aggregate", "AggregateProjectTop(fused)"}},
	{"op.orderby_share", []string{"OrderBy", "Limit", "Distinct"}},
	{"op.defactor_share", []string{"Defactor"}},
}

// Per-layer metrics: reported by the traced run, not gated. A value of 0
// means the layer or request class does not occur on the workload.
var perLayer = func() []metricDef {
	us := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "us", Better: "lower"})
		}
		return out
	}
	defs := us("lat.ic_p50_us", "lat.ic_p99_us", "lat.is_p50_us", "lat.is_p99_us",
		"lat.iu_p50_us", "lat.iu_p95_us",
		"lat.adhoc_hit_p50_us", "lat.adhoc_miss_p50_us", "lat.adhoc_fat_p50_us", "lat.read_p95_us")
	defs = append(defs,
		metricDef{Name: "driver.failed_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "driver.delayed_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "driver.writer_late_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "sched.gomaxprocs", Unit: "count", Better: "higher"},
		metricDef{Name: "driver.machine_slowdown", Unit: "ratio", Better: "lower"},
	)
	defs = append(defs, us("service.overhead_us", "service.decode_us", "service.encode_us")...)
	defs = append(defs,
		metricDef{Name: "service.encode_bytes_per_op", Unit: "bytes", Better: "lower"},
		metricDef{Name: "service.plancache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "service.plancache_misses", Unit: "count", Better: "lower"},
	)
	defs = append(defs, us("cypher.normalize_us", "cypher.compile_us",
		"plan.bind_params_us", "plan.fuse_us", "queries.build_us",
		"exec.run_us", "exec.self_us", "exec.is_run_us", "exec.is_self_us")...)
	defs = append(defs,
		metricDef{Name: "exec.peak_intermediate_bytes_p50", Unit: "bytes", Better: "lower"},
		metricDef{Name: "exec.peak_intermediate_bytes_max", Unit: "bytes", Better: "lower"},
	)
	for _, g := range opGroups {
		defs = append(defs, metricDef{Name: g.metric, Unit: "ratio", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "op.rows_examined_per_row_returned", Unit: "ratio", Better: "lower"},
		metricDef{Name: "core.defactor_ns_per_tuple", Unit: "ns", Better: "lower"},
		metricDef{Name: "storage.neighbors_batch_ns_per_edge.sealed", Unit: "ns", Better: "lower"},
		metricDef{Name: "storage.neighbors_batch_ns_per_edge.overlay", Unit: "ns", Better: "lower"},
		metricDef{Name: "storage.gather_ns_per_value", Unit: "ns", Better: "lower"},
		metricDef{Name: "storage.intersect_ns_per_probe", Unit: "ns", Better: "lower"},
		metricDef{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "storage.pool_gets_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "storage.live_arena_bytes_end", Unit: "bytes", Better: "lower"},
		metricDef{Name: "storage.overlay_inserts", Unit: "count", Better: "lower"},
		metricDef{Name: "storage.overlay_tombstones", Unit: "count", Better: "lower"},
		metricDef{Name: "storage.overlay_max_delta_fraction", Unit: "ratio", Better: "lower"},
		metricDef{Name: "storage.reseals", Unit: "count", Better: "higher"},
		metricDef{Name: "storage.reseal_ms_total", Unit: "ms", Better: "lower"},
		metricDef{Name: "storage.stats_epoch_bumps", Unit: "count", Better: "lower"},
		metricDef{Name: "storage.dead_slots", Unit: "count", Better: "lower"},
		metricDef{Name: "storage.graph_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "storage.bytes_per_edge", Unit: "bytes", Better: "lower"},
	)
	defs = append(defs, us("txn.snapshot_us", "txn.update_us")...)
	defs = append(defs,
		metricDef{Name: "txn.overlay_vertices", Unit: "count", Better: "lower"},
		metricDef{Name: "txn.commit_version", Unit: "count", Better: "higher"},
		metricDef{Name: "stats.build_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "ldbc.generate_s", Unit: "s", Better: "lower"},
		metricDef{Name: "service.warmup_s", Unit: "s", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "runtime.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
		metricDef{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.rss_peak_mb", Unit: "MiB", Better: "lower"},
	)
	return defs
}()

// measured is one reported value with the number of samples behind it
// (0 for counters and gauges read once).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects values by name and renders exactly the declared ones.
type metricSet map[string]measured

func (m metricSet) set(name string, v float64, n int) { m[name] = measured{Value: v, N: n} }

// render returns the declared metrics in declaration order, with units, and
// fails on a metric that was declared but not measured.
func (m metricSet) render(defs []metricDef) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out, nil
}

// tailSamples is how many samples must lie beyond a percentile for it to be
// reported: p99 needs 1 000 samples, p95 200, p50 20.
const tailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of the samples, which it
// sorts in place. It refuses (ok = false) when fewer than tailSamples
// samples lie beyond the quantile, where a single outlier would decide it.
func percentile(samples []int64, p float64) (v int64, ok bool) {
	n := len(samples)
	if float64(n)*(1-p) < tailSamples || float64(n)*p < tailSamples {
		return 0, false
	}
	slices.Sort(samples)
	idx := int(p * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return samples[idx], true
}

// usPercentile reports a percentile of nanosecond samples in microseconds;
// an unsupported percentile is 0 with 0 samples.
func usPercentile(samples []int64, p float64) (float64, int) {
	v, ok := percentile(samples, p)
	if !ok {
		return 0, 0
	}
	return float64(v) / 1e3, len(samples)
}

// median sorts the samples in place and returns their median (0 if none).
func median[T int64 | float64](v []T) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	slices.Sort(v)
	if n%2 == 1 {
		return float64(v[n/2])
	}
	return float64(v[n/2-1]+v[n/2]) / 2
}
