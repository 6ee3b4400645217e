// Package workloads holds the benchmark bodies behind the perfgate
// harness. Each workload is a plain function over the B interface — the
// subset of *testing.B a benchmark body actually needs — so the exact same
// code runs in two harnesses:
//
//   - `go test -bench` via the thin Benchmark* wrappers (bench_test.go at
//     the repo root, internal/serve/bench_test.go), which pass TB(b);
//   - cmd/perfgate, whose fixed-iteration trial harness implements B
//     itself (see internal/perfgate/runner.go) so it can run warmup +
//     repeated trials and take robust medians.
//
// Workloads report derived numbers (speedups, quantiles, throughput) via
// ReportMetric with ledger-stable unit names: "speedup", "efficiency",
// "p95_ms", "jobs_per_sec", "req_per_sec", "peak_bytes", "workers",
// "cores". These unit
// strings are the keys perfgate cases declare goals against and the field
// names written to the BENCH_*.json ledger — renaming one breaks baseline
// comparison, so don't.
package workloads

import (
	"sort"
	"testing"
)

// B is the benchmark context a workload runs under: the subset of
// *testing.B the bodies need. N is a method (testing.B spells it as a
// field, so wrappers go through TB).
type B interface {
	// N returns the iteration count for this run.
	N() int
	// ResetTimer restarts the wall-clock and allocation baselines,
	// excluding setup cost from the measurement.
	ResetTimer()
	// ReportAllocs marks the run as allocation-reporting (a no-op under
	// the perfgate harness, which always measures allocations).
	ReportAllocs()
	// ReportMetric records a derived metric under a unit name.
	ReportMetric(n float64, unit string)
	// Fatalf aborts the run: the workload's invariant broke, so its
	// timing numbers are meaningless.
	Fatalf(format string, args ...any)
}

// tb adapts *testing.B to B for the Benchmark* wrappers.
type tb struct{ b *testing.B }

func (t tb) N() int                              { return t.b.N }
func (t tb) ResetTimer()                         { t.b.ResetTimer() }
func (t tb) ReportAllocs()                       { t.b.ReportAllocs() }
func (t tb) ReportMetric(n float64, unit string) { t.b.ReportMetric(n, unit) }
func (t tb) Fatalf(format string, args ...any)   { t.b.Fatalf(format, args...) }

// TB wraps a *testing.B as a workload context.
func TB(b *testing.B) B { return tb{b} }

// Func is a runnable workload body.
type Func func(b B)

// registry maps the workload names perf/cases/*.json files reference to
// their bodies.
var registry = map[string]Func{
	"kernel-throughput":  KernelEventThroughput,
	"kernel-churn":       KernelEventChurn,
	"timer-cancel-storm": TimerCancelStorm,
	"slice-rotation":     SliceRotation,
	"all-to-all-16":      AllToAll16,
	"sweep-scaling":      SweepScaling,
	"sweep-forked":       SweepForked,
	"arrival-throughput": ArrivalThroughput,
	"open-peak-rss":      OpenPeakRSS,
	"schedd-run-cached":  ScheddRunCached,
	"schedd-run-cold":    ScheddRunCold,
	"schedd-serve-load":  ScheddServeLoad,
	"proc-handoff":       ProcHandoff,
	"cpu-burst":          CPUBurst,
	"mailbox-roundtrip":  MailboxRoundtrip,
	"open-paper":         OpenPaper,
	"router-hop":         RouterHop,
	"campaign":           Campaign,
}

// Lookup resolves a workload by its case-file name.
func Lookup(name string) (Func, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names lists every registered workload, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
