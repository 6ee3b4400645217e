package sched

// Warm-state forking support. A scheduling System can snapshot its
// cross-job state at a *quiescent instant* — no job resident anywhere, no
// message in flight, every CPU idle, all memory returned — and a freshly
// constructed, identically configured System can restore that state and
// resume with the remaining jobs of the batch. Sweeps over configurations
// that share a prefix (same workload, same machine, divergence only in
// quantum/order knobs) run the prefix once and fork.
//
// Quiescence is what makes this tractable: the simulator's transient state
// lives in goroutine stacks (blocked processes, in-flight transfers) that
// cannot be serialized, but at a quiescent instant all of it is gone by
// definition. What remains is plain data — counters, job records, fault
// flags, allocator cursors — plus pending kernel events that are all
// declaratively reconstructible (future arrivals from the batch, future
// fault-plan events from the regenerated plan, the sampler's next tick).

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// NodeState is one node's accumulated statistics.
type NodeState struct {
	CPU machine.CPUState `json:"cpu"`
	Mem mem.Stats        `json:"mem"`
}

// PartState is one fixed partition's cross-job state.
type PartState struct {
	// NodeDown flags locally failed nodes (index = local node id).
	NodeDown []bool `json:"node_down"`
	// Net is the partition network's state (stats, allocators, down links).
	Net comm.State `json:"net"`
}

// CarriedNet is the aggregate network contribution of per-job partitions a
// donor run retired before the snapshot (dynamic/equi buddy allocations are
// torn down with their job, so their networks no longer exist to restore).
type CarriedNet struct {
	Stats     comm.Stats        `json:"stats"`
	LinkTotal machine.LinkStats `json:"link_total"`
	LinkMax   machine.LinkStats `json:"link_max"`
}

// State is the serializable cross-job state of a System at quiescence.
type State struct {
	Records    []metrics.JobRecord `json:"records"`
	Started    int                 `json:"started"`
	FaultStats metrics.FaultStats  `json:"fault_stats"`
	Nodes      []NodeState         `json:"nodes"`
	Host       machine.LinkStats   `json:"host"`
	Parts      []PartState         `json:"parts"`
	Carried    []CarriedNet        `json:"carried,omitempty"`
	Injector   *fault.State        `json:"injector,omitempty"`
}

// Quiescent reports whether the system holds no transient state: nothing
// running or queued at any level, every network silent, every CPU idle, all
// memory freed, the host link released, and (for pool policies) the buddy
// pool fully coalesced. Only a Quiescent system can be snapshotted.
func (s *System) Quiescent() bool {
	if s.runningNow != 0 || s.dynRunning != 0 || s.fatalErr != nil {
		return false
	}
	if s.pending.Len() != 0 || s.stalled.Len() != 0 || len(s.equiJobs) != 0 {
		return false
	}
	for _, part := range s.parts {
		if part.busy || part.resident != 0 {
			return false
		}
		if part.queue.Len() != 0 || len(part.gangJobs) != 0 || len(part.jobs) != 0 {
			return false
		}
		if !part.net.Quiet() {
			return false
		}
	}
	// Retired per-job partitions keep busy=true as a tombstone; only their
	// networks need to be silent (they always are once the job is gone).
	for _, part := range s.dynParts {
		if !part.net.Quiet() {
			return false
		}
	}
	if s.pool != nil && len(s.pool.order) != 0 {
		return false
	}
	for _, n := range s.cfg.Machine.Nodes {
		if n.Mem.Used() != 0 || n.CPU.Running() {
			return false
		}
	}
	if s.cfg.Machine.Host.Busy() {
		return false
	}
	return true
}

// SnapshotState captures the system's cross-job state. It fails unless the
// system is Quiescent.
func (s *System) SnapshotState() (*State, error) {
	if s.streaming {
		return nil, fmt.Errorf("sched: open-system streams have no snapshot representation")
	}
	if !s.Quiescent() {
		return nil, fmt.Errorf("sched: snapshot of a non-quiescent system")
	}
	st := &State{
		Records:    append([]metrics.JobRecord(nil), s.records...),
		Started:    s.started,
		FaultStats: s.faultStats,
		Host:       s.cfg.Machine.Host.Stats(),
		Carried:    append([]CarriedNet(nil), s.carried...),
	}
	for _, n := range s.cfg.Machine.Nodes {
		st.Nodes = append(st.Nodes, NodeState{CPU: n.CPU.SnapshotState(), Mem: n.Mem.Stats()})
	}
	for _, part := range s.parts {
		st.Parts = append(st.Parts, PartState{
			NodeDown: append([]bool(nil), part.nodeDown...),
			Net:      part.net.SnapshotState(),
		})
	}
	// Retired per-job partitions fold into carried aggregates: their node
	// blocks will be re-allocated from scratch by the restored run, so only
	// their accumulated traffic must survive.
	for _, part := range s.dynParts {
		total, max := part.net.LinkStats()
		st.Carried = append(st.Carried, CarriedNet{
			Stats:     part.net.Stats(),
			LinkTotal: total,
			LinkMax:   max,
		})
	}
	if s.inj != nil {
		ist := s.inj.SnapshotState()
		st.Injector = &ist
	}
	return st, nil
}

// RestoreState installs a donor system's snapshot into this freshly built,
// identically structured System. Call after New and before SubmitResume.
func (s *System) RestoreState(st *State) error {
	if s.used || len(s.records) != 0 {
		return fmt.Errorf("sched: restore into a used system")
	}
	if len(st.Nodes) != len(s.cfg.Machine.Nodes) {
		return fmt.Errorf("sched: restore %d node states into %d-node machine",
			len(st.Nodes), len(s.cfg.Machine.Nodes))
	}
	if len(st.Parts) != len(s.parts) {
		return fmt.Errorf("sched: restore %d partition states into %d partitions",
			len(st.Parts), len(s.parts))
	}
	if (st.Injector != nil) != (s.inj != nil) {
		return fmt.Errorf("sched: injector state mismatch (snapshot %v, system %v)",
			st.Injector != nil, s.inj != nil)
	}
	s.records = append([]metrics.JobRecord(nil), st.Records...)
	s.started = st.Started
	s.faultStats = st.FaultStats
	s.carried = append([]CarriedNet(nil), st.Carried...)
	for i, n := range s.cfg.Machine.Nodes {
		n.CPU.RestoreState(st.Nodes[i].CPU)
		n.Mem.RestoreStats(st.Nodes[i].Mem)
	}
	s.cfg.Machine.Host.RestoreStats(st.Host)
	for i, part := range s.parts {
		ps := st.Parts[i]
		if len(ps.NodeDown) != part.size {
			return fmt.Errorf("sched: restore %d node-down flags into partition of %d nodes",
				len(ps.NodeDown), part.size)
		}
		if err := part.net.RestoreState(ps.Net); err != nil {
			return err
		}
		part.downCount = 0
		for j, down := range ps.NodeDown {
			part.nodeDown[j] = down
			if down {
				part.downCount++
			}
		}
	}
	if st.Injector != nil {
		s.inj.RestoreState(*st.Injector)
	}
	return nil
}

// SubmitResume enters the jobs of the batch that arrive strictly after the
// fork time (the donor run completed the rest; RestoreState installed their
// records). Jobs keep their original batch indices so partition routing is
// unchanged. The caller then restores the kernel clock and calls Finish.
func (s *System) SubmitResume(batch workload.Batch, after sim.Time) error {
	return s.submitAfter(batch, after)
}

// Diverge re-resolves the policy components after mutating the divergable
// configuration knobs in place: the basic quantum, the quantum policy and
// the queue order (zero values keep the current setting). Only these three
// may differ between forked points — they shape future dispatch decisions
// without invalidating any state accumulated before the fork. The system
// must be Quiescent (the cold reference path diverges mid-run).
func (s *System) Diverge(basicQuantum sim.Time, quantum QuantumKind, order OrderKind) error {
	if !s.Quiescent() {
		return fmt.Errorf("sched: divergence at a non-quiescent instant")
	}
	if basicQuantum < 0 {
		return fmt.Errorf("sched: negative basic quantum %v", basicQuantum)
	}
	if basicQuantum > 0 {
		s.cfg.BasicQuantum = basicQuantum
	}
	if quantum != QuantumDefault {
		s.cfg.QuantumPolicy = quantum
	}
	if order != OrderDefault {
		s.cfg.QueueOrder = order
	}
	spec, err := ResolveSpec(s.cfg.Policy, s.cfg.PartitionPolicy, s.cfg.QuantumPolicy, s.cfg.QueueOrder)
	if err != nil {
		return err
	}
	if spec.Partition != s.spec.Partition {
		return fmt.Errorf("sched: divergence may not change the partition policy (%v -> %v)",
			s.spec.Partition, spec.Partition)
	}
	s.spec = spec
	s.partpol, s.quant, s.order = spec.policies()
	return nil
}

// Label returns the result label this system will report, so forked runs
// can be keyed without building the full result.
func (s *System) Label() string {
	return fmt.Sprintf("%d%s %s", s.cfg.PartitionSize, s.cfg.Topology.Letter(), s.spec)
}
