package workloads

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// SweepBenchPlan builds the fixed 32-point plan behind the sweep-scaling
// workload and BenchmarkSweepParallel: partitions {2,4,8,16} × topologies
// {linear,mesh} × seeds 0..3, hybrid matmul adaptive — a representative
// mid-size sweep.
func SweepBenchPlan() *engine.Plan[float64] {
	g := engine.Grid{
		Base:       core.Config{Policy: sched.TimeShared, App: core.MatMul, Arch: workload.Adaptive},
		Partitions: []int{2, 4, 8, 16},
		Topologies: []topology.Kind{topology.Linear, topology.Mesh},
		Seeds:      []int64{0, 1, 2, 3},
	}
	plan := engine.NewPlan[float64]("bench-sweep")
	g.Enumerate(func(d engine.Dims, cfg core.Config) {
		plan.Add(fmt.Sprintf("%d%s/s%d", d.Partition, d.Topology.Letter(), d.Seed), func() (float64, error) {
			res, err := core.Run(cfg)
			if err != nil {
				return 0, err
			}
			return res.MeanResponse().Seconds(), nil
		})
	})
	return plan
}

// SweepScaling measures engine.Execute over the 32-point plan at 1 worker
// and at NumCPU workers inside the same timed region and reports the ratio
// as "speedup", and the speedup per usable core, speedup / min(workers,
// cores), as "efficiency". Efficiency is what the goals bound: an
// absolute speedup floor is out of reach on a host with fewer cores than
// it, while efficiency asks the same of 2 cores as of 16. On a 1-core
// host both numbers are the pool's overhead instead (≈1.0).
func SweepScaling(b B) {
	workers := runtime.NumCPU()
	cores := min(workers, runtime.GOMAXPROCS(0)) // usable cores, at most workers
	var serial, parallel time.Duration
	var serialSum, parallelSum float64
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		start := time.Now()
		r1, err := engine.Execute(SweepBenchPlan(), engine.Options{Workers: 1})
		serial += time.Since(start)
		if err != nil {
			b.Fatalf("workers=1: %v", err)
		}
		start = time.Now()
		rn, err := engine.Execute(SweepBenchPlan(), engine.Options{Workers: workers})
		parallel += time.Since(start)
		if err != nil {
			b.Fatalf("workers=%d: %v", workers, err)
		}
		serialSum, parallelSum = 0, 0
		for i := range r1 {
			serialSum += r1[i]
			parallelSum += rn[i]
		}
		if serialSum != parallelSum {
			b.Fatalf("determinism: sim-sum %v at workers=1 vs %v at workers=%d", serialSum, parallelSum, workers)
		}
	}
	if parallel > 0 {
		speedup := float64(serial) / float64(parallel)
		b.ReportMetric(speedup, "speedup")
		b.ReportMetric(speedup/float64(cores), "efficiency")
	}
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(cores), "cores")
}

// ForkedSweepGrid builds the fixed 32-point shared-prefix grid behind the
// sweep-forked workload and BenchmarkSweepForked: one fork group — a heavy
// 32-job warm-up wave every point shares, plus 4 light late arrivals —
// diverging innermost over quanta {hw,10..70ms} × seeds 0..3. The fork
// point is the quiescent instant after the wave drains, so the warm path
// simulates the expensive prefix once instead of 32 times.
func ForkedSweepGrid() (engine.Grid, core.ForkPoint) {
	cost := workload.DefaultAppCost()
	batch := make(workload.Batch, 0, 16)
	for i := 0; i < 32; i++ {
		batch = append(batch, &workload.Job{
			ID: i, Class: "big", Arch: workload.Adaptive,
			App: workload.NewSynthetic(400*sim.Millisecond, 512, 2048, cost),
		})
	}
	for i := 0; i < 4; i++ {
		batch = append(batch, &workload.Job{
			ID: 32 + i, Class: "small", Arch: workload.Adaptive, Arrival: 20 * sim.Second,
			App: workload.NewSynthetic(5*sim.Millisecond, 256, 1024, cost),
		})
	}
	g := engine.Grid{
		Base:       core.Config{Topology: topology.Mesh, Policy: sched.TimeShared, Batch: batch},
		Partitions: []int{4},
		Quanta: []sim.Time{0, 10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond,
			40 * sim.Millisecond, 50 * sim.Millisecond, 60 * sim.Millisecond, 70 * sim.Millisecond},
		Seeds: []int64{0, 1, 2, 3},
	}
	return g, core.ForkPoint{WarmJobs: 32}
}

// SweepForked runs the shared-prefix 32-point sweep cold (core.RunForked
// per point, full prefix every time) and warm (engine.NewForkSweep: prefix
// once, snapshot resume per point) inside the same timed region, and
// reports cold/warm as "speedup" — the warm-state forking headline whose
// acceptance floor is 5x. Byte-identity of the two paths is asserted by
// make fork-gate, not here.
func SweepForked(b B) {
	g, fp := ForkedSweepGrid()
	var cold, warm time.Duration
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		start := time.Now()
		fs := engine.NewForkSweep(g, fp)
		for j := 0; j < fs.Len(); j++ {
			if _, err := core.RunForked(fs.Group(j).Base(), fp, fs.Divergence(j)); err != nil {
				b.Fatalf("cold point %d: %v", j, err)
			}
		}
		cold += time.Since(start)
		start = time.Now()
		fs = engine.NewForkSweep(g, fp)
		for j := 0; j < fs.Len(); j++ {
			if _, err := fs.Run(j); err != nil {
				b.Fatalf("warm point %d: %v", j, err)
			}
		}
		warm += time.Since(start)
	}
	if warm > 0 {
		b.ReportMetric(float64(cold)/float64(warm), "speedup")
	}
}
