package sched

// PartitionPolicy implementations for the fixed-layout disciplines: static
// one-job partitions (fixedPartition) and equitably-shared partitions
// (sharedPartition), plus the buddy-pool allocator behind the legacy
// DynamicSpace policy (buddyPartition). The malleable equipartition policy
// lives in equi.go.
//
// These are direct factorings of the pre-framework switch arms: each method
// body is the code that used to sit behind `switch s.cfg.Policy` at the
// corresponding call site, so composing the defaults reproduces the old
// event order exactly.

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/topology"
)

// setupFixedPartitions carves the machine into equal PartitionSize-node
// partitions, each with its own interconnect instance over the shared
// read-only graph. Used by both fixed-layout policies.
func setupFixedPartitions(s *System) error {
	cfg := s.cfg
	size := cfg.Machine.Size()
	p := cfg.PartitionSize
	if p < 1 || size%p != 0 {
		return fmt.Errorf("sched: partition size %d must divide machine size %d", p, size)
	}
	graph, err := topology.Build(cfg.Topology, p)
	if err != nil {
		return err
	}
	for i := 0; i < size/p; i++ {
		nodes := make([]int, p)
		for j := range nodes {
			nodes[j] = i*p + j
		}
		// The graph is read-only after construction, so all partitions share
		// it; links are created per network.
		net, err := comm.NewNetwork(cfg.Machine, nodes, graph, cfg.Mode)
		if err != nil {
			return err
		}
		part := &Partition{
			idx:      i,
			size:     p,
			net:      net,
			nodeDown: make([]bool, p),
		}
		part.net.SetTracer(cfg.Tracer)
		s.parts = append(s.parts, part)
	}
	return nil
}

// setupPool validates the machine and topology for per-job buddy blocks and
// builds the pool. Used by the buddy and equi policies; name labels the
// policy in errors.
func setupPool(s *System, name string) error {
	size := s.cfg.Machine.Size()
	if size&(size-1) != 0 {
		return fmt.Errorf("sched: %s needs a power-of-two machine, got %d", name, size)
	}
	if cap := s.cfg.PartitionSize; cap != 0 && (cap < 1 || cap&(cap-1) != 0 || cap > size) {
		return fmt.Errorf("sched: dynamic block cap %d must be a power of two <= %d", cap, size)
	}
	// Every possible block size must be wireable in the configured
	// topology (hypercube needs powers of two, which blocks are).
	for bs := 1; bs <= size; bs <<= 1 {
		if _, err := topology.Build(s.cfg.Topology, bs); err != nil {
			return err
		}
	}
	s.pool = newBuddy(size)
	return nil
}

// fixedPartition: each equal partition runs exactly one job to completion;
// other jobs wait in the globally ordered ready queue.
type fixedPartition struct{}

func (fixedPartition) Kind() PartitionKind { return PartFixed }

func (fixedPartition) Setup(s *System) error { return setupFixedPartitions(s) }

func (fixedPartition) Arrive(s *System, js *jobState, idx int) {
	s.atArrival(js, func() { s.arriveReady(js) })
}

func (fixedPartition) Complete(s *System, js *jobState) {
	js.part.busy = false
	s.dispatchNext(js.part)
}

func (fixedPartition) Killed(s *System, part *Partition) {
	part.busy = false
}

func (fixedPartition) Requeue(s *System, js *jobState) {
	s.arriveReady(js)
}

func (fixedPartition) Healthy(s *System, part *Partition) {
	s.dispatchNext(part)
}

// sharedPartition: jobs are distributed equitably over the equal partitions
// — job i to partition i mod #partitions, giving the multiprogramming level
// 16/(16/p) of §5.1 — and started on arrival unless MaxResident caps the
// set size.
type sharedPartition struct{}

func (sharedPartition) Kind() PartitionKind { return PartShared }

func (sharedPartition) Setup(s *System) error { return setupFixedPartitions(s) }

func (sharedPartition) Arrive(s *System, js *jobState, idx int) {
	s.atArrival(js, func() { s.admit(s.parts[idx%len(s.parts)], js) })
}

func (sharedPartition) Complete(s *System, js *jobState) {
	part := js.part
	part.resident--
	s.drainQueue(part)
}

func (sharedPartition) Killed(s *System, part *Partition) {
	part.resident--
	if !part.degraded() {
		s.drainQueue(part)
	}
}

func (sharedPartition) Requeue(s *System, js *jobState) {
	alt := s.survivingPartition()
	if alt == nil {
		s.stalled.Push(js)
		return
	}
	s.place(alt, js)
}

func (sharedPartition) Healthy(s *System, part *Partition) {
	// First the jobs stalled with nowhere to run, then this partition's
	// own admission queue.
	for s.stalled.Len() > 0 {
		alt := s.survivingPartition()
		if alt == nil {
			return
		}
		js := s.stalled.Pop()
		s.place(alt, js)
	}
	s.drainQueue(part)
}

// buddyPartition: per-job contiguous power-of-two blocks from a buddy pool,
// equipartition-sized at arrival, run to completion (see dynamic.go).
type buddyPartition struct{}

func (buddyPartition) Kind() PartitionKind { return PartBuddy }

func (buddyPartition) Setup(s *System) error { return setupPool(s, "dynamic space-sharing") }

func (buddyPartition) Arrive(s *System, js *jobState, idx int) {
	s.atArrival(js, func() { s.dynArrive(js) })
}

func (buddyPartition) Complete(s *System, js *jobState) {
	s.dynComplete(js)
}

// Fault injection is rejected at New for pool-based policies, so the repair
// hooks are unreachable.
func (buddyPartition) Killed(s *System, part *Partition)  {}
func (buddyPartition) Requeue(s *System, js *jobState)    {}
func (buddyPartition) Healthy(s *System, part *Partition) {}
