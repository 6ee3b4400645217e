package workload

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// RankBinding is the placement of one of a job's processes: which
// partition-local node it runs on, its mailbox, and its CPU task.
type RankBinding struct {
	Node int // partition-local node index
	Box  *comm.Mailbox
	Task *machine.Task
	// Name names the rank's process and CPU task.
	Name RankName
}

// RankName is the "job%d.r%d" name of one of a job's processes, formatted
// only when it is read.
type RankName struct{ Job, Rank int }

func (n *RankName) String() string { return fmt.Sprintf("job%d.r%d", n.Job, n.Rank) }

// Env is everything a running job's processes share: the partition network
// and the per-rank bindings. The scheduler constructs it when a job is
// dispatched.
type Env struct {
	Net   *comm.Network
	JobID int
	Ranks []RankBinding
}

// NewEnv binds T processes of a job onto the partition: rank r runs on local
// node nodeOf(r). Mailboxes and low-priority CPU tasks are created here.
func NewEnv(net *comm.Network, jobID int, nodeOf []int) *Env {
	env := &Env{Net: net, JobID: jobID, Ranks: make([]RankBinding, len(nodeOf))}
	for r, node := range nodeOf {
		b := &env.Ranks[r]
		*b = RankBinding{Node: node, Box: net.NewMailbox(node), Name: RankName{Job: jobID, Rank: r}}
		b.Task = net.NodeOf(node).CPU.NewTaskNamed(&b.Name, machine.PriLow)
	}
	return env
}

// T returns the job's process count.
func (e *Env) T() int { return len(e.Ranks) }

// Runtime is the per-process view of a running job: the API application
// programs are written against. All methods must be called from the
// process's own goroutine.
type Runtime struct {
	P    *sim.Proc
	Env  *Env
	Rank int

	// Ownership tracking so Cleanup can verify and reclaim everything the
	// process still holds when its program returns.
	dataBytes int64
	held      []*comm.Message // in receive order, so cleanup is deterministic
	parked    []*comm.Message // received but not yet claimed by RecvWhere

	// Checkpoint/restart accounting. done accumulates completed compute;
	// pending is the demand of the Compute call in flight, so progress of a
	// burst interrupted by a kill still counts; credit is work restored from
	// a checkpoint that Compute replays instantly instead of re-charging the
	// CPU (communication is always replayed at full cost — the recovery
	// model restores computation state, not message logs).
	done    sim.Time
	pending sim.Time
	credit  sim.Time
}

// NewRuntime makes the runtime for one rank; the scheduler calls this when
// spawning the process.
func NewRuntime(p *sim.Proc, env *Env, rank int) *Runtime {
	return &Runtime{P: p, Env: env, Rank: rank}
}

// T is the number of processes in the job.
func (rt *Runtime) T() int { return rt.Env.T() }

// Node returns the partition-local node this rank runs on.
func (rt *Runtime) Node() int { return rt.Env.Ranks[rt.Rank].Node }

// Now returns the current simulated time.
func (rt *Runtime) Now() sim.Time { return rt.P.Now() }

// Compute consumes d microseconds of CPU at the job's (low) priority,
// sharing the node per the T805 rules. Work covered by restored checkpoint
// credit completes instantly; only the remainder is charged to the CPU.
func (rt *Runtime) Compute(d sim.Time) {
	if d <= 0 {
		return
	}
	if rt.credit > 0 {
		use := rt.credit
		if use > d {
			use = d
		}
		rt.credit -= use
		rt.done += use
		d -= use
		if d == 0 {
			return
		}
	}
	rt.pending = d
	rt.Env.Ranks[rt.Rank].Task.Compute(rt.P, d)
	rt.pending = 0
	rt.done += d
}

// ComputeDone reports the compute this rank has completed so far, including
// the executed part of an interrupted in-flight burst — the quantity
// checkpoints snapshot and kills lose.
func (rt *Runtime) ComputeDone() sim.Time {
	partial := rt.pending - rt.Env.Ranks[rt.Rank].Task.BurstRemaining()
	if partial < 0 {
		partial = 0
	}
	return rt.done + partial
}

// SetCredit grants restored-checkpoint compute that future Compute calls
// replay instantly. The scheduler calls it when restarting a job from its
// last checkpoint.
func (rt *Runtime) SetCredit(c sim.Time) {
	if c < 0 {
		panic(fmt.Sprintf("workload: negative checkpoint credit %v", c))
	}
	rt.credit = c
}

// Send transmits bytes of payload to another rank of the same job
// asynchronously (it returns once the message is accepted by the source
// node's mailbox system).
func (rt *Runtime) Send(dst int, bytes int64, tag string, payload any) {
	if dst < 0 || dst >= rt.T() {
		panic(fmt.Sprintf("workload: job %d rank %d sends to rank %d of %d", rt.Env.JobID, rt.Rank, dst, rt.T()))
	}
	m := &comm.Message{
		Src:     rt.Env.Ranks[rt.Rank].Box.Addr(),
		Dst:     rt.Env.Ranks[dst].Box.Addr(),
		Bytes:   bytes,
		Tag:     tag,
		Payload: payload,
	}
	rt.Env.Net.Send(rt.P, rt.Env.Ranks[rt.Rank].Task, m)
}

// Recv blocks until the next message addressed to this rank arrives. The
// message's buffer stays charged to this node until Release — keeping a
// received message is how a process holds data memory.
func (rt *Runtime) Recv() *comm.Message {
	m := rt.Env.Net.Recv(rt.P, rt.Env.Ranks[rt.Rank].Task, rt.Env.Ranks[rt.Rank].Box)
	rt.held = append(rt.held, m)
	return m
}

// RecvTag receives messages until one carries the wanted tag; any others
// must not occur (the paper's applications have strictly staged protocols,
// so an unexpected tag is a bug).
func (rt *Runtime) RecvTag(tag string) *comm.Message {
	m := rt.Recv()
	if m.Tag != tag {
		panic(fmt.Sprintf("workload: job %d rank %d expected %q, got %q from %v", rt.Env.JobID, rt.Rank, tag, m.Tag, m.Src))
	}
	return m
}

// RecvWhere is a selective receive: it returns the oldest message matching
// the predicate, parking any others until a later RecvWhere claims them.
// Parked messages keep occupying node memory (they are real buffered
// mailbox contents). Applications whose messages can overtake each other —
// e.g. the stencil's halos racing the initial strip distribution — use this
// instead of RecvTag.
func (rt *Runtime) RecvWhere(match func(*comm.Message) bool) *comm.Message {
	for i, m := range rt.parked {
		if match(m) {
			rt.parked = append(rt.parked[:i], rt.parked[i+1:]...)
			return m
		}
	}
	for {
		m := rt.Recv()
		if match(m) {
			return m
		}
		rt.parked = append(rt.parked, m)
	}
}

// Release frees a received message's memory.
func (rt *Runtime) Release(m *comm.Message) {
	for i, h := range rt.held {
		if h == m {
			rt.held = append(rt.held[:i], rt.held[i+1:]...)
			rt.Env.Net.Release(m)
			return
		}
	}
	panic(fmt.Sprintf("workload: job %d rank %d releasing message it does not hold", rt.Env.JobID, rt.Rank))
}

// AllocData claims long-lived application memory on this rank's node,
// blocking when the node is full (memory contention).
func (rt *Runtime) AllocData(bytes int64) {
	rt.Env.Net.NodeOf(rt.Node()).Mem.Alloc(rt.P, bytes, mem.ClassData)
	rt.dataBytes += bytes
}

// FreeData returns previously allocated data memory.
func (rt *Runtime) FreeData(bytes int64) {
	if bytes > rt.dataBytes {
		panic(fmt.Sprintf("workload: job %d rank %d frees %d of %d held", rt.Env.JobID, rt.Rank, bytes, rt.dataBytes))
	}
	rt.dataBytes -= bytes
	rt.Env.Net.NodeOf(rt.Node()).Mem.FreeBytes(bytes)
}

// Cleanup releases everything the process still holds. The scheduler calls
// it when the program returns, so a job's end always returns its memory
// (the partition is handed back clean, as on the real system).
func (rt *Runtime) Cleanup() {
	for _, m := range rt.held {
		rt.Env.Net.Release(m)
	}
	rt.held = nil
	if rt.dataBytes > 0 {
		rt.Env.Net.NodeOf(rt.Node()).Mem.FreeBytes(rt.dataBytes)
		rt.dataBytes = 0
	}
}
