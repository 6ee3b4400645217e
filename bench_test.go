// Package repro's root benchmark harness: one benchmark per reproduced
// table/figure. Each iteration regenerates the full experiment; custom
// metrics report the headline simulated numbers so `go test -bench` output
// doubles as a compact reproduction record:
//
//	sim-static-s   mean response under static space-sharing (seconds)
//	sim-ts-s       mean response under time-sharing / hybrid (seconds)
//	(benchmarks of sweeps report the experiment's own key numbers)
//
// Wall-clock ns/op measures the simulator itself — useful when optimizing
// the event kernel.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/perfgate/workloads"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// benchFigure regenerates one of Figures 3-6 per iteration and reports the
// pure-time-sharing (16L) and 4-partition cells.
func benchFigure(b *testing.B, f func(core.Config, ...engine.Options) (*experiments.Figure, error)) {
	b.Helper()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = f(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if c := fig.Find("4M"); c != nil {
		b.ReportMetric(c.Static.Seconds(), "sim-static-4M-s")
		b.ReportMetric(c.TS.Seconds(), "sim-ts-4M-s")
	}
	if c := fig.Find("16L"); c != nil {
		b.ReportMetric(c.Static.Seconds(), "sim-static-16L-s")
		b.ReportMetric(c.TS.Seconds(), "sim-ts-16L-s")
	}
}

// BenchmarkFigure3 regenerates Figure 3 (matmul, fixed architecture).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, experiments.Figure3) }

// BenchmarkFigure4 regenerates Figure 4 (matmul, adaptive architecture).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4) }

// BenchmarkFigure5 regenerates Figure 5 (sort, fixed architecture).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates Figure 6 (sort, adaptive architecture).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6) }

// BenchmarkVarianceSweep regenerates E1 and reports the endpoints of the
// TS/static ratio curve (crossover evidence).
func BenchmarkVarianceSweep(b *testing.B) {
	var points []experiments.VariancePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.VarianceSweep(experiments.DefaultCVs, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := points[0], points[len(points)-1]
	b.ReportMetric(float64(first.TS)/float64(first.Static), "ratio-lowCV")
	b.ReportMetric(float64(last.TS)/float64(last.Static), "ratio-highCV")
}

// BenchmarkWormholeAblation regenerates E2 and reports the wormhole speedup
// on the linear topology.
func BenchmarkWormholeAblation(b *testing.B) {
	var cells []experiments.AblationCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.WormholeAblation(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cells[0].SAF.Seconds(), "sim-saf-16L-s")
	b.ReportMetric(cells[0].WH.Seconds(), "sim-wh-16L-s")
}

// BenchmarkQuantumSweep regenerates E3 and reports the best quantum's
// response.
func BenchmarkQuantumSweep(b *testing.B) {
	var points []experiments.QuantumPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.QuantumSweep(experiments.DefaultQuanta, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.TS < best.TS {
			best = p
		}
	}
	b.ReportMetric(best.TS.Seconds(), "sim-best-s")
	b.ReportMetric(best.Q.Seconds()*1000, "best-q-ms")
}

// BenchmarkRRProcessVsRRJob regenerates E4 and reports the wide job's
// unfair advantage under each rule.
func BenchmarkRRProcessVsRRJob(b *testing.B) {
	var r *experiments.RRComparisonResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunRRComparison(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.RRProcBig)/float64(r.RRProcSmall), "rrproc-wide-advantage")
	b.ReportMetric(float64(r.RRJobBig)/float64(r.RRJobSmall), "rrjob-wide-advantage")
}

// BenchmarkMPLSweep regenerates E5 and reports the best set size.
func BenchmarkMPLSweep(b *testing.B) {
	var points []experiments.MPLPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.MPLSweep(experiments.DefaultMPLs, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.Mean < best.Mean {
			best = p
		}
	}
	b.ReportMetric(best.Mean.Seconds(), "sim-best-s")
	b.ReportMetric(float64(best.MaxResident), "best-mpl")
}

// BenchmarkSingleRunPureTS measures the simulator's throughput on the most
// event-dense configuration (pure time-sharing, fixed matmul, linear).
func BenchmarkSingleRunPureTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.Config{
			PartitionSize: 16,
			Topology:      topology.Linear,
			Policy:        sched.TimeShared,
			App:           core.MatMul,
			Arch:          workload.Fixed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel measures engine.Execute over the fixed 32-point
// plan (workloads.SweepBenchPlan) at 1, 2 and NumCPU workers; the ns/op
// ratio between the sub-benches is the sweep-level parallel speedup. The
// summed mean response is reported as a custom metric so a determinism
// regression shows up as a metric change between worker counts. The
// perfgate sweep-scaling case measures the same plan and enforces the
// speedup goal per machine class.
func BenchmarkSweepParallel(b *testing.B) {
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				results, err := engine.Execute(workloads.SweepBenchPlan(), engine.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				sum = 0
				for _, r := range results {
					sum += r
				}
			}
			b.ReportMetric(sum, "sim-sum-mean-s")
		})
	}
}

// BenchmarkSweepForked measures warm-state forking against the cold
// reference on the shared-prefix 32-point plan (workloads.ForkedSweepGrid).
// The cold sub-bench runs every point as core.RunForked (full prefix +
// continuation per point); the warm sub-bench prepares the donor once per
// sweep and resumes the snapshot per point. The ns/op ratio cold/warm is
// the sweep-level speedup the perfgate sweep-forked case enforces (floor
// 5x). Both paths are byte-identical by the fork-gate contract (make
// fork-gate).
func BenchmarkSweepForked(b *testing.B) {
	g, fp := workloads.ForkedSweepGrid()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs := engine.NewForkSweep(g, fp)
			for j := 0; j < fs.Len(); j++ {
				if _, err := core.RunForked(fs.Group(j).Base(), fp, fs.Divergence(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs := engine.NewForkSweep(g, fp)
			for j := 0; j < fs.Len(); j++ {
				if _, err := fs.Run(j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// The kernel hot-path benchmarks delegate to internal/perfgate/workloads so
// `go test -bench` and the perfgate cases under perf/cases/ measure the
// exact same bodies — a number printed here is the number the gate
// enforces.

// BenchmarkKernelEventThroughput isolates the event-queue engine.
func BenchmarkKernelEventThroughput(b *testing.B) { workloads.KernelEventThroughput(workloads.TB(b)) }

// BenchmarkKernelEventChurn drives 64 interleaved self-rescheduling event
// chains — the schedule/fire pattern that dominates simulation runs — and
// reports allocs/op, the handle-free heap's headline number.
func BenchmarkKernelEventChurn(b *testing.B) { workloads.KernelEventChurn(workloads.TB(b)) }

// BenchmarkKernelTimerCancelStorm arms batches of re-armable timers and
// stops three quarters of them before they fire — the slice-expiry pattern
// where most armed timers never run.
func BenchmarkKernelTimerCancelStorm(b *testing.B) { workloads.TimerCancelStorm(workloads.TB(b)) }

// BenchmarkNetworkAllToAll16 runs a 16-node mesh all-to-all exchange — the
// message pattern that stresses the store-and-forward router hot path
// (enqueue routing, link hand-off, per-hop timers).
func BenchmarkNetworkAllToAll16(b *testing.B) { workloads.AllToAll16(workloads.TB(b)) }

// BenchmarkOpenLoadSweep regenerates E6 and reports the heavy-load cell.
func BenchmarkOpenLoadSweep(b *testing.B) {
	var points []experiments.LoadPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.OpenLoadSweep(experiments.DefaultLoads, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	heavy := points[len(points)-1]
	b.ReportMetric(heavy.Static4.Seconds(), "sim-static4-s")
	b.ReportMetric(heavy.Dynamic.Seconds(), "sim-dynamic-s")
}

// BenchmarkArrivalThroughput measures the open-system streaming path on the
// cheapest representative configuration (static space-sharing, single-node
// partitions, Poisson arrivals at ρ=0.5 — the make open-gate shape) and
// reports simulated jobs per wall-clock second ("jobs_per_sec"), the
// headline number for the millions-of-jobs goal. Memory stays flat by
// design; allocs/op is the tripwire for per-job retention creeping back
// in. The body lives in internal/perfgate/workloads so the perfgate
// arrival-throughput case enforces the same measurement.
func BenchmarkArrivalThroughput(b *testing.B) { workloads.ArrivalThroughput(workloads.TB(b)) }

// BenchmarkGangVsRRJob regenerates E7 and reports the stencil advantage.
func BenchmarkGangVsRRJob(b *testing.B) {
	var cells []experiments.GangCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.GangVsRRJob(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.App == "stencil" {
			b.ReportMetric(float64(c.Gang)/float64(c.RRJob), "stencil-gang-vs-rrjob")
		}
	}
}

// BenchmarkStencilTopology regenerates E8 and reports the TS/static ratio
// on the linear topology.
func BenchmarkStencilTopology(b *testing.B) {
	var cells []experiments.StencilCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.StencilTopology(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells[0].TS)/float64(cells[0].Static), "ts-over-static-8L")
}

// BenchmarkScalability regenerates E9 and reports the largest machine's
// policy ratio.
func BenchmarkScalability(b *testing.B) {
	var cells []experiments.ScaleCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.Scalability(experiments.DefaultScales, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := cells[len(cells)-1]
	b.ReportMetric(float64(last.Machine), "nodes")
	b.ReportMetric(float64(last.TS)/float64(last.Static), "ts-over-static")
}

// BenchmarkBroadcastAblation regenerates E10 and reports the tree speedup
// on the linear one-partition configuration.
func BenchmarkBroadcastAblation(b *testing.B) {
	var cells []experiments.BroadcastCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.BroadcastAblation(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells[0].Tree)/float64(cells[0].Seq), "tree-over-seq-16L")
}

// BenchmarkSortAlgorithmAblation regenerates E11 and reports the fixed-arch
// speedup under both algorithms at 2-processor partitions.
func BenchmarkSortAlgorithmAblation(b *testing.B) {
	var cells []experiments.SortAlgCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.SortAlgorithmAblation(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.PartitionSize == 2 {
			b.ReportMetric(c.Speedup(), c.Algorithm+"-fixed-speedup")
		}
	}
}

// BenchmarkCollectiveTopology regenerates E12 and reports the
// hypercube-over-linear advantage for the lone all-reduce job.
func BenchmarkCollectiveTopology(b *testing.B) {
	var cells []experiments.CollectiveCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.CollectiveTopology(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	byLabel := map[string]experiments.CollectiveCell{}
	for _, c := range cells {
		byLabel[c.Label] = c
	}
	b.ReportMetric(float64(byLabel["8L"].Single)/float64(byLabel["8H"].Single), "linear-over-hypercube")
}
