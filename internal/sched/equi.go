package sched

// Malleable equipartitioning (EQUI, extension policy): like dynamic
// space-sharing, processors are granted per job as contiguous power-of-two
// buddy blocks — but the allocation is malleable. On every arrival and
// departure the system recomputes the equipartition target (machine size
// over jobs in the system, rounded down to a power of two, capped by
// Config.PartitionSize) and *re-sizes running jobs* to it: a job whose
// block differs from the target is torn down, its completed compute
// snapshotted as checkpoint credit, and relaunched on a target-sized block
// where the credit replays instantly. Migration is honest about its cost —
// the image reloads over the shared host link and the processes respawn —
// but no computed work is lost, which is what distinguishes a malleable
// policy from naive kill-and-restart.
//
// This is the EQUI discipline of the parallel-scheduling literature
// (Berg–Dorsman–Harchol-Balter's optimality results build on it), the
// modern baseline the paper's §2.1 partitioning discussion predates.
//
// Determinism: jobs migrate in admission order, waiting jobs start in
// queue order, and the buddy allocator is deterministic, so the event
// sequence is a pure function of the batch. Fault injection is rejected at
// New, exactly as for dynamic space-sharing.

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

type equiPartition struct{}

func (equiPartition) Kind() PartitionKind { return PartEqui }

func (equiPartition) Setup(s *System) error { return setupPool(s, "malleable equipartitioning") }

func (equiPartition) Arrive(s *System, js *jobState, idx int) {
	s.atArrival(js, func() { s.equiArrive(js) })
}

func (equiPartition) Complete(s *System, js *jobState) {
	s.equiComplete(js)
}

// Fault injection is rejected at New for pool-based policies, so the repair
// hooks are unreachable.
func (equiPartition) Killed(s *System, part *Partition)  {}
func (equiPartition) Requeue(s *System, js *jobState)    {}
func (equiPartition) Healthy(s *System, part *Partition) {}

// equiArrive queues a job and schedules a rebalance. Like dynArrive, the
// rebalance is deferred by one event so all jobs arriving at the same
// instant are counted before any block is granted or resized.
func (s *System) equiArrive(js *jobState) {
	s.enqueue(&s.pending, js)
	s.k.AfterFunc(0, s.equiRebalance)
}

// equiComplete returns a finished job's block and rebalances immediately:
// the freed processors are redistributed to the survivors.
func (s *System) equiComplete(js *jobState) {
	for i, j := range s.equiJobs {
		if j == js {
			s.equiJobs = append(s.equiJobs[:i], s.equiJobs[i+1:]...)
			break
		}
	}
	s.pool.release(js.part.idx)
	s.equiRebalance()
}

// equiTarget is the malleable block size for the current load: the machine
// equipartitioned over jobs in the system, rounded down to a power of two,
// clamped to [1, cap].
func (s *System) equiTarget(inSystem int) int {
	size := s.cfg.Machine.Size() / inSystem
	if size < 1 {
		size = 1
	}
	p := 1
	for p*2 <= size {
		p *= 2
	}
	if max := s.dynMaxBlock(); p > max {
		p = max
	}
	return p
}

// equiRebalance brings the allocation to the equipartition target: running
// jobs on off-target blocks migrate (in admission order), then waiting jobs
// start on target blocks while the pool provides them. Because every kept
// or granted block has the target size and inSystem·target ≤ machine size,
// the allocations always succeed once the migrations have run — except
// when the target clamps to one and there are more jobs than processors,
// in which case the excess simply stays queued.
func (s *System) equiRebalance() {
	inSystem := len(s.equiJobs) + s.pending.Len()
	if inSystem == 0 {
		return
	}
	target := s.equiTarget(inSystem)
	for _, js := range append([]*jobState(nil), s.equiJobs...) {
		if js.part == nil || js.part.size == target {
			continue
		}
		s.equiMigrate(js, target)
	}
	for s.pending.Len() > 0 {
		start, ok := s.pool.alloc(target)
		if !ok {
			return
		}
		js := s.pending.Pop()
		s.equiJobs = append(s.equiJobs, js)
		s.equiPlace(js, start, target)
	}
}

// equiMigrate re-sizes one running job: snapshot its compute as checkpoint
// credit, tear it down, and relaunch it on a target-sized block.
func (s *System) equiMigrate(js *jobState, target int) {
	old := js.part
	s.equiRecredit(js, js.job.Procs(target))
	s.equiTeardown(js)
	s.pool.release(old.idx)
	start, ok := s.pool.alloc(target)
	if !ok {
		// Transient fragmentation (possible only while other blocks are
		// still off-target): put the job back at the head of the queue; a
		// later pass of this rebalance or the next one re-places it.
		for i, j := range s.equiJobs {
			if j == js {
				s.equiJobs = append(s.equiJobs[:i], s.equiJobs[i+1:]...)
				break
			}
		}
		s.pending.Insert(0, js)
		return
	}
	s.equiPlace(js, start, target)
}

// equiPlace builds a block partition and launches the job on it. Block
// sizes were all validated buildable in New, so failure here is an internal
// invariant violation.
func (s *System) equiPlace(js *jobState, start, size int) {
	nodes := make([]int, size)
	for i := range nodes {
		nodes[i] = start + i
	}
	part := &Partition{
		idx:  start,
		size: size,
		net:  comm.MustNewNetwork(s.cfg.Machine, nodes, topology.MustBuild(s.cfg.Topology, size), s.cfg.Mode),
		busy: true,
	}
	part.net.SetTracer(s.cfg.Tracer)
	s.dynParts = append(s.dynParts, part)
	s.launch(part, js)
}

// equiRecredit snapshots the job's completed compute into js.ckpt, shaped
// for t processes. When the process count is unchanged the per-rank values
// carry over exactly; when the new block changes it (the adaptive
// architecture), the total credit is redistributed evenly — the malleable
// workloads divide their work evenly across ranks, so this is the honest
// reshape.
func (s *System) equiRecredit(js *jobState, t int) {
	done := make([]sim.Time, len(js.ckpt))
	var total sim.Time
	for r := range js.ckpt {
		c := js.ckpt[r]
		if r < len(js.runtimes) && js.runtimes[r] != nil {
			if d := js.runtimes[r].ComputeDone(); d > c {
				c = d
			}
		}
		done[r] = c
		total += c
	}
	if t == len(done) {
		js.ckpt = done
		return
	}
	js.ckpt = make([]sim.Time, t)
	if t < 1 {
		return
	}
	per := total / sim.Time(t)
	rem := total % sim.Time(t)
	for r := 0; r < t; r++ {
		js.ckpt[r] = per
		if sim.Time(r) < rem {
			js.ckpt[r]++
		}
	}
}

// equiTeardown vacates a job's block for migration: the same mechanics as a
// fault kill — epoch bump orphans the loader, checkpoint timer and rank
// procs; tasks are pulled off the CPUs; mailboxes retire; code pages free —
// but with no fault accounting: nothing failed, and the compute survives as
// credit.
func (s *System) equiTeardown(js *jobState) {
	part := js.part
	js.epoch++
	s.runningNow--
	removeJob(part, js)
	if js.env != nil {
		s.quant.Departed(s, part, js)
		for _, b := range js.env.Ranks {
			if !b.Task.Suspended() {
				b.Task.Suspend()
			}
		}
		for _, p := range js.procs {
			if p != nil {
				p.Abort()
			}
		}
		for _, b := range js.env.Ranks {
			part.net.RetireMailbox(b.Box)
		}
	}
	if js.loaded {
		for i := 0; i < part.size; i++ {
			part.net.NodeOf(i).Mem.FreeBytes(workload.CodeBytes)
		}
	}
	js.env = nil
	js.procs = nil
	js.runtimes = nil
	js.loaded = false
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "migrate", js.job.String(),
			fmt.Sprintf("vacating %d-node block at %d", part.size, part.idx))
	}
}
