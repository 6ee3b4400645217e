package sched

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestDiagnoseOvercommittedDeadlock pins the full stall report of a buffer
// deadlock on 4 MB nodes: two time-shared jobs each want 2 MB of data on
// the root node. The second request heads the root's FIFO, so the first
// job's reply buffer queues behind it and neither job can finish.
func TestDiagnoseOvercommittedDeadlock(t *testing.T) {
	k := sim.NewKernel(1)
	mach := machine.NewMachine(k, 2, mem.NodeMemory, machine.DefaultCostModel())
	defer k.Shutdown()
	sys, err := New(Config{Machine: mach, PartitionSize: 2, Topology: topology.Linear, Policy: TimeShared, Mode: comm.StoreForward})
	if err != nil {
		t.Fatal(err)
	}
	var batch workload.Batch
	for i := 0; i < 2; i++ {
		batch = append(batch, &workload.Job{ID: i, Class: "big", Arch: workload.Adaptive,
			App: workload.NewSynthetic(sim.Second, 64, 2000<<10, workload.DefaultAppCost())})
	}
	_, err = sys.RunBatch(batch)
	if err == nil {
		t.Fatal("overcommitted batch completed, want a deadlock")
	}
	const want = `sched: 2 jobs did not complete
memory pressure:
  node 0: 2228224/4194304 bytes used, 2 waiters for 2048096 bytes; head: job1.r0 wants 2048000B (waiting since 429.326ms)
parked processes:
  router0.deliver (parked: router delivery idle)
  router0.port0 (parked: router port idle)
  router1.deliver (parked: router delivery idle)
  router1.port0 (parked: mem alloc 96B on node 0)
  job0.r0 (parked: recv on n0.b0)
  job1.r0 (parked: mem alloc 2048000B on node 0)
  job1.r1 (parked: recv on n1.b1)
`
	if got := err.Error(); got != want {
		t.Errorf("stall report:\n%s\nwant:\n%s", got, want)
	}
	if got := sys.Diagnose(); "sched: 2 jobs did not complete\n"+got != want {
		t.Errorf("Diagnose() after the run:\n%s", got)
	}
}
