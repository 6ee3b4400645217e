package sched

import (
	"repro/internal/comm"
	"repro/internal/topology"
)

// Dynamic space-sharing (extension policy): instead of fixed equal
// partitions, processors are allocated per job from a buddy pool of
// contiguous power-of-two blocks, sized by an equipartition heuristic —
// roughly the machine divided by the number of jobs in the system, so the
// system adapts partition size to load. This is the policy family the
// paper's §2.1 points to (and its reference [5], "Dynamic Partitioning in
// a Transputer Environment") but does not implement. Jobs run to
// completion on their block, like static space-sharing.
//
// Under the adaptive software architecture this gives each job exactly the
// parallelism the load allows; under the fixed architecture the 16
// processes fold onto whatever block is granted.

// dynArrive queues a job and schedules placement. Dispatch is deferred by
// one event so that all jobs arriving at the same instant are visible to
// the equipartition heuristic before any block is granted.
func (s *System) dynArrive(js *jobState) {
	s.enqueue(&s.pending, js)
	s.k.AfterFunc(0, s.dynDispatch)
}

// dynTargetSize picks the block size for the next job: the machine
// equipartitioned over jobs currently in the system (running + queued),
// rounded down to a power of two, clamped to [1, MaxPartition] and to what
// the pool can actually provide.
func (s *System) dynTargetSize() int {
	inSystem := s.dynRunning + s.pending.Len()
	if inSystem < 1 {
		inSystem = 1
	}
	size := s.cfg.Machine.Size() / inSystem
	if size < 1 {
		size = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= size {
		p *= 2
	}
	if max := s.dynMaxBlock(); p > max {
		p = max
	}
	if largest := s.pool.largest(); p > largest {
		p = largest
	}
	return p
}

// dynMaxBlock is the configured cap on a single job's block
// (Config.PartitionSize doubles as the cap for this policy).
func (s *System) dynMaxBlock() int {
	if s.cfg.PartitionSize > 0 {
		return s.cfg.PartitionSize
	}
	return s.cfg.Machine.Size()
}

// dynDispatch places queued jobs while blocks are available.
func (s *System) dynDispatch() {
	for s.pending.Len() > 0 {
		size := s.dynTargetSize()
		if size < 1 {
			return // pool exhausted
		}
		start, ok := s.pool.alloc(size)
		if !ok {
			return
		}
		js := s.pending.Pop()
		nodes := make([]int, size)
		for i := range nodes {
			nodes[i] = start + i
		}
		// Block sizes were all validated buildable in New, so failure here is
		// an internal invariant violation.
		part := &Partition{
			idx:  start,
			size: size,
			net:  comm.MustNewNetwork(s.cfg.Machine, nodes, topology.MustBuild(s.cfg.Topology, size), s.cfg.Mode),
			busy: true,
		}
		part.net.SetTracer(s.cfg.Tracer)
		s.dynParts = append(s.dynParts, part)
		s.dynRunning++
		s.launch(part, js)
	}
}

// dynComplete returns a job's block to the pool and re-dispatches.
func (s *System) dynComplete(js *jobState) {
	s.pool.release(js.part.idx)
	s.dynRunning--
	s.dynDispatch()
}
