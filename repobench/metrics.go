package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's output contract: an untraced run reports exactly
// endToEnd, a traced run exactly perLayer, and BENCHMARK.json at the
// repository root lists the same names and units (bench_test.go checks).
type metricDef struct{ name, unit string }

// endToEnd holds the metrics a user of the simulator sees. Every workload
// reports every one of them; what an "operation" is differs per workload
// (see workloadSpec.op and NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_cpu_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer holds the per-layer metrics of a traced run. Every workload
// reports every one of them; a metric of a layer the workload never
// enters (core.run_ms.static on open-paper) is 0.
var perLayer = []metricDef{
	// Layer probes: isolated calls into one module's public API.
	{"sim.event_ns", "ns"},
	{"sim.event_allocs", "count"},
	{"sim.handoff_ns", "ns"},
	{"sim.handoff_allocs", "count"},
	{"machine.burst_ns", "ns"},
	{"machine.burst_allocs", "count"},
	{"mem.alloc_ns", "ns"},
	{"mem.wait_ns", "ns"},
	{"comm.msg_ns", "ns"},
	{"comm.hop_ns", "ns"},
	{"comm.msg_allocs", "count"},
	{"arrival.next_ns", "ns"},
	{"stats.digest_add_ns", "ns"},
	{"serve.resolve_us", "us"},
	{"serve.summary_us", "us"},
	// Spans the benchmark records around its calls into core and serve.
	{"core.run_ms.static", "ms"},
	{"core.run_ms.ts", "ms"},
	{"experiments.self_share", "ratio"},
	// Deterministic model counts per simulated job.
	{"count.procs_per_job", "count"},
	{"count.msgs_per_job", "count"},
	{"count.hops_per_job", "count"},
	{"count.payload_kb_per_job", "KiB"},
	{"count.preempt_per_job", "count"},
	{"count.quantum_exp_per_job", "count"},
	{"count.mem_blocked_per_job", "count"},
	// Host allocation and GC per simulated job.
	{"host.allocs_per_job", "count"},
	{"host.alloc_kb_per_job", "KiB"},
	{"host.gc_cycles", "count"},
	// CPU-profile self time of the simulating process, by layer.
	{"prof.sim_pct", "%"},
	{"prof.machine_pct", "%"},
	{"prof.comm_pct", "%"},
	{"prof.mem_pct", "%"},
	{"prof.sched_pct", "%"},
	{"prof.workload_pct", "%"},
	{"prof.arrival_pct", "%"},
	{"prof.stats_pct", "%"},
	{"prof.serve_pct", "%"},
	{"prof.fmt_pct", "%"},
	{"prof.rt_sched_pct", "%"},
	{"prof.rt_alloc_pct", "%"},
	{"prof.rt_gc_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metric map for defs from values, failing on any name
// the run did not measure, so a missing metric is an error and not a 0.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := rankOf(q, len(s))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 0.5 quantile, averaging the middle pair of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond counts the samples strictly above the q-quantile: a tail
// percentile is only reported when at least minBeyond samples lie past it.
func beyond(xs []float64, q float64) int {
	return len(xs) - rankOf(q, len(xs))
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples;
// the epsilon keeps q*n that lands on an integer (0.99*1000) from
// rounding up a rank through floating-point error.
func rankOf(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// minBeyond is the smallest number of samples a reported tail percentile
// must have beyond it.
const minBeyond = 10

// minSamples is the sample count at which the q-quantile has minBeyond
// samples beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}
