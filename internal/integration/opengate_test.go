package integration

import (
	"os"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfgate/workloads"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The open gate is the arrival subsystem's memory contract, checked end to
// end through core.Run: a 1M-job open-system stream must hold resident
// memory flat — bounded independent of job count — because every per-job
// quantity folds into O(1) streaming state (a Welford accumulator, an
// ε-quantile sketch, fixed-budget windows) instead of per-job records.
// `make open-gate` runs this under the race detector together with the
// sketch-vs-exact accuracy bound in internal/stats (TestOpenGateSketchAccuracy).
//
// The test is gated behind OPEN_GATE=1: the 1M-job run takes ~25s plain and
// ~2min under -race, too heavy for the default `go test ./...` tier.

// openGateConfig is the cheapest configuration that still streams through
// the full scheduler: static 1-node partitions (one loader process and one
// compute process per job, no quantum rotation), Poisson arrivals at a
// stable ρ=0.5.
func openGateConfig(jobs int64) core.Config {
	ac := workload.DefaultAppCost()
	return core.Config{
		PartitionSize: 1,
		Topology:      topology.Mesh,
		Policy:        sched.Static,
		Arch:          workload.Adaptive,
		AppCost:       &ac,
		Arrival:       arrival.Spec{Kind: arrival.Poisson, Jobs: jobs, Load: 0.5},
	}
}

func TestOpenGateFlatMemory(t *testing.T) {
	if os.Getenv("OPEN_GATE") == "" {
		t.Skip("set OPEN_GATE=1 to run the 1M-job flat-memory gate")
	}
	run := func(jobs int64) (peak uint64, mean sim.Time) {
		var res *metrics.Result
		var err error
		peak = workloads.PeakHeapDuring(func() {
			res, err = core.Run(openGateConfig(jobs))
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Open == nil || res.Open.Jobs != jobs {
			t.Fatalf("open run of %d jobs returned %+v", jobs, res.Open)
		}
		if len(res.Jobs) != 0 {
			t.Fatalf("open run retained %d per-job records", len(res.Jobs))
		}
		return peak, res.MeanResponse()
	}

	refPeak, refMean := run(100_000)
	bigPeak, bigMean := run(1_000_000)
	t.Logf("peak live heap: 100k=%dMB 1M=%dMB; mean response: 100k=%v 1M=%v",
		refPeak>>20, bigPeak>>20, refMean, bigMean)

	// Flat memory: 10x the jobs may not cost more than a constant-factor
	// headroom over the reference. The 64MB floor absorbs allocator and GC
	// noise when both runs are small.
	ceiling := 2 * refPeak
	if floor := refPeak + 64<<20; ceiling < floor {
		ceiling = floor
	}
	if bigPeak > ceiling {
		t.Fatalf("1M-job peak heap %dMB exceeds flat-memory ceiling %dMB (100k ref %dMB)",
			bigPeak>>20, ceiling>>20, refPeak>>20)
	}

	// ρ=0.5 is a stable operating point: mean response must not drift with
	// the horizon (an unstable queue would grow it roughly linearly).
	if bigMean > 3*refMean {
		t.Fatalf("mean response grew from %v (100k) to %v (1M): system not stable at ρ=0.5", refMean, bigMean)
	}
}

// TestOpenGateDeterminism pins the streaming path's reproducibility at a
// scale the plain unit tests never reach: two 200k-job runs must agree
// bit-for-bit on every streamed aggregate.
func TestOpenGateDeterminism(t *testing.T) {
	if os.Getenv("OPEN_GATE") == "" {
		t.Skip("set OPEN_GATE=1 to run the open-system determinism gate")
	}
	a, err := core.Run(openGateConfig(200_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(openGateConfig(200_000))
	if err != nil {
		t.Fatal(err)
	}
	if a.Open.MeanResponse != b.Open.MeanResponse || a.Open.P99 != b.Open.P99 ||
		a.Makespan != b.Makespan || a.Open.PeakQueue != b.Open.PeakQueue {
		t.Fatalf("200k-job open runs diverged:\n%v\n%v", a.Open, b.Open)
	}
}
