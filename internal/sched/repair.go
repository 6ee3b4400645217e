package sched

// Fault wiring and scheduler repair. The injector (package fault) decides
// *what* fails and when; this file decides what the scheduler does about it:
//
//   - A node failure kills every job resident on its partition (a job spans
//     all partition nodes, so losing one is fatal to all of them) and marks
//     the partition degraded — it accepts no work until every node is
//     repaired. Killed jobs are re-queued onto surviving partitions, or
//     stall until a repair when none survive. The node's router and links
//     stay in service: the failure model is a crashed application processor
//     whose communication hardware keeps forwarding, the common transputer
//     failure mode (and the paper's networks route through every node, so a
//     dead router would partition the interconnect).
//   - A link failure is handled below the scheduler: the network detours
//     around it while the graph stays connected, and reliable delivery
//     (retry with exponential backoff) covers messages lost in transit.
//     Only when the retry budget is exhausted — the destination is truly
//     unreachable — does the delivery-failure signal reach this layer, and
//     the affected job is killed and re-queued like a node-failure victim.
//   - Checkpoint/restart: every interval each running job snapshots its
//     per-rank completed compute (charging CheckpointCost to every
//     partition node at high priority); a restarted job replays the
//     snapshot instantly and loses only the work past it. The snapshot
//     itself is taken atomically at the firing instant — the cost models
//     the coordination work, not a staged protocol.
//
// Everything here runs in kernel context and is deterministic: the kill
// order follows the partition's admission-order job list, and re-queue
// targets are chosen by (resident count, partition index).

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wireFaults attaches the fault machinery configured in cfg.Fault to the
// fixed partitions: reliable delivery and failure handlers on every
// partition network, and the injector's schedule on the kernel. Called once
// from New; a nil or inert config wires nothing.
func (s *System) wireFaults() error {
	f := s.cfg.Fault
	if f == nil {
		return nil
	}
	if f.Reliable() {
		for _, part := range s.parts {
			part := part
			part.net.EnableReliability(f.RetryTimeout, f.RetryCap())
			part.net.SetFailureHandler(func(m *comm.Message) { s.onDeliveryFailure(part, m) })
		}
	}
	if !f.Active() {
		return nil
	}
	// The injector's link universe is every partition's physical links,
	// in global sorted order (partitions tile the machine, so the
	// concatenation is already sorted).
	var links [][2]int
	for _, part := range s.parts {
		links = append(links, part.net.Links()...)
	}
	inj, err := fault.NewInjector(*f, s.cfg.Machine.Size(), links)
	if err != nil {
		return err
	}
	s.inj = inj
	if f.DropProb > 0 {
		for _, part := range s.parts {
			part.net.SetDropFn(inj.DropMessage)
		}
	}
	// On a warm-start restore (ResumeFrom > 0) only the plan events the
	// donor run had not yet fired are armed; the donor's applied-fault state
	// arrives via RestoreState instead.
	inj.ScheduleFrom(s.k, fault.Handlers{
		NodeDown: func(node int, permanent bool) { s.onNodeDown(node, permanent) },
		NodeUp:   func(node int) { s.onNodeUp(node) },
		LinkDown: func(a, b int, _ bool) { s.setLinkState(a, b, false) },
		LinkUp:   func(a, b int) { s.setLinkState(a, b, true) },
	}, s.cfg.ResumeFrom)
	return nil
}

// setLinkState broadcasts a link event to every partition network; each
// ignores pairs outside its node set.
func (s *System) setLinkState(a, b int, up bool) {
	state := "down"
	if up {
		state = "up"
	}
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "fault", fmt.Sprintf("link %d-%d", a, b), state)
	}
	for _, part := range s.parts {
		part.net.SetLinkState(a, b, up)
	}
}

// partOfNode maps a global node id to its fixed partition.
func (s *System) partOfNode(g int) *Partition {
	p := s.cfg.PartitionSize
	if p < 1 || g < 0 || g/p >= len(s.parts) {
		return nil
	}
	return s.parts[g/p]
}

// survivingPartition picks the healthy partition with the fewest resident
// jobs (ties to the lowest index), or nil when every partition is degraded.
func (s *System) survivingPartition() *Partition {
	var best *Partition
	for _, part := range s.parts {
		if part.degraded() {
			continue
		}
		if best == nil || part.resident < best.resident {
			best = part
		}
	}
	return best
}

// removeJob drops a job from its partition's resident list.
func removeJob(part *Partition, js *jobState) {
	if part == nil {
		return
	}
	for i, j := range part.jobs {
		if j == js {
			part.jobs = append(part.jobs[:i], part.jobs[i+1:]...)
			return
		}
	}
}

// onNodeDown applies a node failure: mark the partition degraded and tear
// down every job resident on it.
func (s *System) onNodeDown(g int, permanent bool) {
	part := s.partOfNode(g)
	if part == nil {
		return
	}
	local := g - part.idx*part.size
	if part.nodeDown[local] {
		return
	}
	part.nodeDown[local] = true
	part.downCount++
	kind := "transient"
	if permanent {
		kind = "permanent"
	}
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "fault", fmt.Sprintf("node %d", g),
			fmt.Sprintf("%s failure, partition %d degraded", kind, part.idx))
	}
	// Kill in admission order over a snapshot: killJob mutates part.jobs.
	for _, js := range append([]*jobState(nil), part.jobs...) {
		s.killJob(js)
		s.requeueAfterKill(js)
	}
}

// onNodeUp applies a node repair; when the partition becomes fully healthy
// again it resumes taking work, starting with jobs stalled by the failure.
func (s *System) onNodeUp(g int) {
	part := s.partOfNode(g)
	if part == nil {
		return
	}
	local := g - part.idx*part.size
	if !part.nodeDown[local] {
		return
	}
	part.nodeDown[local] = false
	part.downCount--
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "fault", fmt.Sprintf("node %d", g),
			fmt.Sprintf("repaired, partition %d %s", part.idx,
				map[bool]string{true: "still degraded", false: "healthy"}[part.degraded()]))
	}
	if part.degraded() {
		return
	}
	s.partpol.Healthy(s, part)
}

// drainQueue launches queued jobs while the partition has admission slots.
func (s *System) drainQueue(part *Partition) {
	for part.queue.Len() > 0 && (s.cfg.MaxResident <= 0 || part.resident < s.cfg.MaxResident) {
		next := part.queue.Pop()
		part.resident++
		s.launch(part, next)
	}
}

// killJob tears a dispatched job down: abort its processes, reclaim its
// memory and mailboxes, and account the lost work. The job keeps its ckpt
// snapshots so a restart can replay checkpointed compute. Safe at any point
// of the job's life cycle — including mid-load, where the epoch bump makes
// the loader back out on its own.
func (s *System) killJob(js *jobState) {
	part := js.part
	s.faultStats.JobKills++
	js.epoch++ // invalidates the loader, checkpoint timer, and rank procs
	js.restarts++
	s.runningNow--
	removeJob(part, js)
	if js.env != nil {
		s.quant.Departed(s, part, js)
		// Pull the tasks off the CPUs first so no aborted process gets
		// another slice (and so in-flight burst accounting is settled for
		// the WorkLost measurement), then abort: each process unwinds at
		// its next park point and releases what it holds.
		for _, b := range js.env.Ranks {
			if !b.Task.Suspended() {
				b.Task.Suspend()
			}
		}
		for r, rt := range js.runtimes {
			if rt == nil {
				continue
			}
			if lost := rt.ComputeDone() - js.ckpt[r]; lost > 0 {
				s.faultStats.WorkLost = metrics.SatAddTime(s.faultStats.WorkLost, lost)
			}
		}
		for _, p := range js.procs {
			if p != nil {
				p.Abort()
			}
		}
		// Messages still in flight to the dead job dead-letter here instead
		// of leaking buffer memory (and their retry timers are cancelled).
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
		trace.Emit(s.cfg.Tracer, s.k.Now(), "fault", js.job.String(),
			fmt.Sprintf("killed on partition %d (restart %d)", part.idx, js.restarts))
	}
	s.partpol.Killed(s, part)
}

// requeueAfterKill returns a killed job to a ready queue, charging its
// restart budget. Exceeding the budget abandons the run with an error — a
// configuration that can never finish (say, a permanently cut partition
// the job keeps being re-dealt to) must not retry forever.
func (s *System) requeueAfterKill(js *jobState) {
	if js.restarts > s.cfg.Fault.RestartCap() {
		if s.fatalErr == nil {
			s.fatalErr = fmt.Errorf("sched: job %d killed %d times, exceeding the restart budget of %d",
				js.job.ID, js.restarts, s.cfg.Fault.RestartCap())
		}
		return
	}
	s.faultStats.Requeues++
	s.partpol.Requeue(s, js)
}

// onDeliveryFailure handles a message abandoned by the retry machinery: the
// destination is unreachable, so the owning job cannot make progress and is
// killed and re-queued.
func (s *System) onDeliveryFailure(part *Partition, m *comm.Message) {
	js := jobForAddr(part, m.Dst)
	if js == nil || js.finished {
		return // owner already completed or was torn down by a node fault
	}
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "fault", js.job.String(),
			fmt.Sprintf("message %v->%v undeliverable", m.Src, m.Dst))
	}
	s.killJob(js)
	s.requeueAfterKill(js)
}

// jobForAddr finds the resident job owning a mailbox address.
func jobForAddr(part *Partition, a comm.Addr) *jobState {
	for _, js := range part.jobs {
		if js.env == nil {
			continue
		}
		for _, b := range js.env.Ranks {
			if b.Box.Addr() == a {
				return js
			}
		}
	}
	return nil
}

// armCheckpoint starts the job's periodic checkpoint timer. The timer is
// epoch-guarded: a kill silently orphans it and the restart arms a new one.
func (s *System) armCheckpoint(js *jobState) {
	f := s.cfg.Fault
	if f == nil || !f.Checkpointing() {
		return
	}
	epoch := js.epoch
	s.k.AfterFunc(f.CheckpointInterval, func() { s.checkpointFire(js, epoch) })
}

// checkpointFire takes one coordinated checkpoint and re-arms the timer.
func (s *System) checkpointFire(js *jobState, epoch int) {
	if js.epoch != epoch || js.finished {
		return
	}
	f := s.cfg.Fault
	s.faultStats.Checkpoints++
	part := js.part
	if f.CheckpointCost > 0 {
		for i := 0; i < part.size; i++ {
			part.net.NodeOf(i).CPU.ChargeAsync(machine.PriHigh, f.CheckpointCost, nil)
		}
		s.faultStats.CheckpointWork = metrics.SatAddTime(s.faultStats.CheckpointWork,
			f.CheckpointCost*sim.Time(part.size))
	}
	for r, rt := range js.runtimes {
		if rt != nil {
			js.ckpt[r] = rt.ComputeDone()
		}
	}
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "ckpt", js.job.String(),
			fmt.Sprintf("checkpoint %d taken", s.faultStats.Checkpoints))
	}
	s.k.AfterFunc(f.CheckpointInterval, func() { s.checkpointFire(js, epoch) })
}
