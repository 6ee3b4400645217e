package main

import (
	"fmt"
	"time"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The open-paper configuration: Poisson arrivals at ρ=0.2 into one 16-node
// linear partition under RR-job time-sharing, adaptive width (one process
// per node). It is `tsim -arrival poisson:load=0.2,jobs=100 -policy ts
// -partition 16 -topo linear -arch adaptive -seed <op seed>`.
const (
	openPaperPartition = 16
	openPaperLoad      = 0.2
	openPaperJobs      = 100
)

func openPaperConfig(seed int64) core.Config {
	return core.Config{
		PartitionSize: openPaperPartition,
		Topology:      topology.Linear,
		Policy:        sched.TimeShared,
		Arch:          workload.Adaptive,
		Seed:          seed,
		Arrival:       arrival.Spec{Kind: arrival.Poisson, Jobs: openPaperJobs, Load: openPaperLoad},
	}
}

// opSeed derives operation i's simulation seed from the workload seed
// (splitmix64), so one workload seed always gives the same stream of runs.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z>>2) + 1
}

// openPaperRep runs open-system streams back to back. Operation i is one
// complete 100-job stream seeded with opSeed(seed, i); every rep of a run
// replays the same sequence from i = 0.
func openPaperRep(w *worker) error {
	exp := w.exp.OpenPaper
	w.ready()
	start := now()
	for i := 0; time.Since(start.wall) < w.args.budget || i < w.args.minOps; i++ {
		cfg := openPaperConfig(opSeed(w.args.seed, i))
		s := w.tr.start(int64(i+1), 0, "core.Run ts")
		t0 := now()
		res, err := core.Run(cfg)
		ms, cpuMS := t0.since()
		w.tr.end(s)
		w.op(ms, cpuMS)
		if err != nil {
			w.fail(1, "op %d: %v", i, err)
			continue
		}
		o := res.Open
		switch {
		case o == nil || o.Jobs != openPaperJobs:
			w.fail(1, "op %d: completed %v of %d jobs", i, o, openPaperJobs)
			continue
		case res.Net.Messages != openPaperJobs*exp.MsgsPerJob:
			w.fail(1, "op %d: %d messages, want %d per job", i, res.Net.Messages, exp.MsgsPerJob)
			continue
		}
		if w.args.seed == defaultSeed && i == 0 {
			got := openSummary{int64(o.MeanResponse), int64(o.P50), int64(o.P99), int64(res.Makespan), res.Net.Messages}
			if got != exp.DefaultSeedOp0 {
				w.fail(1, "op 0 of the default seed: summary %+v, want %+v", got, exp.DefaultSeedOp0)
				continue
			}
		}
		w.Jobs += o.Jobs
		w.observe("core.Run ts", ms, res)
	}
	w.measured(start)
	if w.Layer != nil {
		var coreMS float64
		for _, ms := range w.OpsMS {
			coreMS += ms
		}
		w.Layer["experiments.self_share"] = (w.WallS - coreMS/1e3) / w.WallS
	}
	return nil
}

// openSummary is the pinned part of one open-paper run's result.
type openSummary struct {
	MeanUS     int64 `json:"mean_us"`
	P50US      int64 `json:"p50_us"`
	P99US      int64 `json:"p99_us"`
	MakespanUS int64 `json:"makespan_us"`
	Messages   int64 `json:"messages"`
}

func (o openSummary) String() string {
	return fmt.Sprintf("mean %dus p50 %dus p99 %dus makespan %dus messages %d",
		o.MeanUS, o.P50US, o.P99US, o.MakespanUS, o.Messages)
}
