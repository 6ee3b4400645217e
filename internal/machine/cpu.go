package machine

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// Priority is a T805 hardware priority level.
type Priority int

const (
	// PriLow processes are time-shared round-robin with a fixed quantum.
	PriLow Priority = iota
	// PriHigh processes run until their burst completes (or they block) and
	// preempt any running low-priority process.
	PriHigh
)

func (p Priority) String() string {
	if p == PriHigh {
		return "high"
	}
	return "low"
}

// CPUStats aggregates processor accounting for a run.
type CPUStats struct {
	// BusyHigh / BusyLow are the simulated time spent executing at each
	// priority.
	BusyHigh, BusyLow sim.Time
	// BusySwitch is time spent in the local scheduler's job-switch overhead
	// (charged when a dispatched low-priority task belongs to a different
	// group than the previous one).
	BusySwitch sim.Time
	// Dispatches counts slice starts; Preemptions counts high-over-low
	// preemptions; QuantumExpiries counts round-robin rotations;
	// GroupSwitches counts charged job switches.
	Dispatches, Preemptions, QuantumExpiries, GroupSwitches int64
}

// Busy is the total non-idle time.
func (s CPUStats) Busy() sim.Time { return s.BusyHigh + s.BusyLow + s.BusySwitch }

// Task is the CPU-scheduling identity of one simulated process on one node.
// A task carries at most one outstanding compute burst at a time. Tasks can
// be suspended and resumed by the local scheduler (used by the time-sharing
// policies' job-level preemption control); a suspended task keeps its
// remaining burst but is not eligible to run.
type Task struct {
	cpu  *CPU
	name string
	// label, when set, names the task instead of name, formatted only when
	// the name is read.
	label fmt.Stringer
	prio  Priority

	// group identifies the job the task belongs to; switching the CPU
	// between low-priority tasks of different groups costs the configured
	// switch overhead. The default group NoGroup never matches another
	// NoGroup task (system tasks switch freely).
	group int
	// quantum overrides the hardware timeslice for this task when positive
	// (the local scheduler's own preemption control, used by the RR-job
	// policy's Q = (P/T)q rule).
	quantum sim.Time

	suspended bool
	// burst is the in-flight compute demand, nil when idle. It points at
	// own while a Compute is outstanding; own is the reused record, so a
	// burst costs no allocation.
	burst *burst
	own   burst
}

// NoGroup is the group of tasks that do not belong to a scheduled job.
const NoGroup = -1

// SetGroup assigns the task to a job group for switch-overhead accounting.
func (t *Task) SetGroup(g int) { t.group = g }

// SetQuantum overrides the task's low-priority timeslice; zero restores the
// hardware quantum.
func (t *Task) SetQuantum(q sim.Time) {
	if q < 0 {
		panic("machine: negative quantum")
	}
	t.quantum = q
}

// burst is one compute demand, either owned by a Task (process work) or
// anonymous (scheduler overhead charged with ChargeAsync).
type burst struct {
	task      *Task // nil for anonymous bursts
	owner     *sim.Proc
	remaining sim.Time
	prio      Priority
	onDone    func()
	queued    bool
}

// CPU is one T805 processor: two ready queues and the transputer dispatch
// rules.
type CPU struct {
	k       *sim.Kernel
	node    int
	quantum sim.Time

	highQ fifo.Ring[*burst]
	lowQ  fifo.Ring[*burst]

	current     *burst
	sliceStart  sim.Time
	slice       *sim.Timer // ends the running slice; runs onSliceEnd
	curOverhead sim.Time   // group-switch overhead at the head of this slice

	switchCost   sim.Time
	lastLowGroup int

	stats CPUStats
}

// NewCPU creates a processor for the given node with the given low-priority
// quantum.
func NewCPU(k *sim.Kernel, node int, quantum sim.Time) *CPU {
	if quantum <= 0 {
		panic(fmt.Sprintf("machine: node %d quantum %v", node, quantum))
	}
	c := &CPU{k: k, node: node, quantum: quantum, lastLowGroup: noGroupSentinel}
	c.slice = k.NewTimer(c.onSliceEnd)
	return c
}

// noGroupSentinel never compares equal to any task group, so the first
// low-priority dispatch after boot counts as a switch when overhead is
// configured.
const noGroupSentinel = -1 << 62

// SetSwitchCost configures the per-job-switch overhead the local scheduler
// charges when the CPU moves between low-priority tasks of different groups.
func (c *CPU) SetSwitchCost(d sim.Time) {
	if d < 0 {
		panic("machine: negative switch cost")
	}
	c.switchCost = d
}

// NodeID returns the node this CPU belongs to.
func (c *CPU) NodeID() int { return c.node }

// Quantum returns the configured low-priority timeslice.
func (c *CPU) Quantum() sim.Time { return c.quantum }

// Stats returns a copy of the accumulated statistics. Call after the
// simulation has drained; time inside an open slice is not yet accounted.
func (c *CPU) Stats() CPUStats { return c.stats }

// NewTask registers a schedulable task at the given priority.
func (c *CPU) NewTask(name string, prio Priority) *Task {
	return &Task{cpu: c, name: name, prio: prio, group: NoGroup}
}

// NewTaskNamed is NewTask with a lazily formatted name, which must stay
// valid for the task's life.
func (c *CPU) NewTaskNamed(name fmt.Stringer, prio Priority) *Task {
	return &Task{cpu: c, label: name, prio: prio, group: NoGroup}
}

// Name returns the task name.
func (t *Task) Name() string {
	if t.label != nil {
		return t.label.String()
	}
	return t.name
}

// Suspended reports whether the task is currently suspended.
func (t *Task) Suspended() bool { return t.suspended }

// BurstRemaining reports the unexecuted demand of the task's in-flight
// burst (zero when idle). Accurate after a Suspend, which closes out the
// running slice; mid-slice it can lag by up to the current slice.
func (t *Task) BurstRemaining() sim.Time {
	if t.burst == nil {
		return 0
	}
	return t.burst.remaining
}

// Compute blocks the calling process for d microseconds of CPU time on this
// task's node, subject to the node's scheduling discipline: the wall-clock
// time until return can be much larger than d when the processor is shared.
// A non-positive demand returns immediately.
func (t *Task) Compute(p *sim.Proc, d sim.Time) {
	t.StartBurst(p, d)
	t.AwaitBurst(p)
}

// StartBurst submits Compute's burst of d for p without waiting for it;
// AwaitBurst waits. A non-positive demand starts nothing.
func (t *Task) StartBurst(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	if t.burst != nil {
		panic(fmt.Sprintf("machine: task %q issued overlapping bursts", t.Name()))
	}
	b := &t.own
	*b = burst{task: t, owner: p, remaining: d, prio: t.prio}
	t.burst = b
	if !t.suspended {
		t.cpu.submit(b)
	}
}

// AwaitBurst waits until the task's burst has completed (complete clears
// t.burst before it wakes the owner). Like sim.Proc.Wait, it reports
// whether a stepper parked and must return.
func (t *Task) AwaitBurst(p *sim.Proc) bool {
	for t.burst != nil {
		if p.Wait((*burstWhy)(t.cpu)) {
			return true
		}
	}
	return false
}

// burstWhy is the lazily formatted park reason of a process waiting on a
// compute burst.
type burstWhy CPU

func (c *burstWhy) String() string { return fmt.Sprintf("cpu burst on node %d", c.node) }

// Suspend makes the task ineligible to run. If its burst is queued it is
// removed; if it is running it is preempted immediately with its remaining
// work preserved. Suspending an already-suspended task is a no-op.
// Must be called from kernel context.
func (t *Task) Suspend() {
	if t.suspended {
		return
	}
	t.suspended = true
	b := t.burst
	if b == nil {
		return
	}
	c := t.cpu
	switch {
	case c.current == b:
		c.stopSlice()
		c.current = nil
		if b.remaining <= 0 {
			// The suspend landed exactly at burst completion.
			c.complete(b)
		}
		c.dispatch()
	case b.queued:
		c.removeQueued(b)
	}
}

// Resume makes the task eligible again, re-queueing any unfinished burst at
// the tail of its priority queue. Resuming a non-suspended task is a no-op.
// Must be called from kernel context.
func (t *Task) Resume() {
	if !t.suspended {
		return
	}
	t.suspended = false
	if t.burst != nil {
		t.cpu.submit(t.burst)
	}
}

// ChargeAsync queues an anonymous burst (scheduler or router overhead that
// is not tied to a simulated process goroutine). onDone, which may be nil,
// runs in kernel context when the burst completes.
func (c *CPU) ChargeAsync(prio Priority, d sim.Time, onDone func()) {
	if d <= 0 {
		if onDone != nil {
			c.k.AfterFunc(0, onDone)
		}
		return
	}
	c.submit(&burst{remaining: d, prio: prio, onDone: onDone})
}

// submit enqueues a burst and re-evaluates dispatch.
func (c *CPU) submit(b *burst) {
	if b.remaining <= 0 {
		panic("machine: submitting empty burst")
	}
	b.queued = true
	if b.prio == PriHigh {
		c.highQ.Push(b)
	} else {
		c.lowQ.Push(b)
	}
	c.reschedule()
}

// reschedule reacts to a queue change while possibly running something.
func (c *CPU) reschedule() {
	cur := c.current
	if cur == nil {
		c.dispatch()
		return
	}
	if cur.prio == PriHigh {
		// High runs to burst completion; arrivals wait.
		return
	}
	// Current is low priority.
	if c.highQ.Len() > 0 {
		// Immediate preemption; the preempted process loses the rest of its
		// quantum and goes to the back of the low queue (T805 rule).
		c.stopSlice()
		c.stats.Preemptions++
		c.current = nil
		if cur.remaining > 0 {
			cur.queued = true
			c.lowQ.Push(cur)
		} else {
			// Preemption landed exactly at burst completion.
			c.complete(cur)
		}
		c.dispatch()
		return
	}
	// Another low-priority burst arrived. If the current slice was extended
	// because the processor was otherwise idle, cut it back to the next
	// quantum boundary (the hardware rotates on timer ticks).
	c.trimSliceToQuantum()
}

// quantumFor picks the burst's timeslice: the owning task's override when
// set, else the hardware quantum.
func (c *CPU) quantumFor(b *burst) sim.Time {
	if b.task != nil && b.task.quantum > 0 {
		return b.task.quantum
	}
	return c.quantum
}

// groupOf is the job group of a burst (NoGroup for anonymous bursts).
func groupOf(b *burst) int {
	if b.task == nil {
		return NoGroup
	}
	return b.task.group
}

// trimSliceToQuantum reschedules the running low-priority slice to end at
// the next quantum boundary (measured from the end of any switch overhead),
// never later than the burst's own completion and never before now.
func (c *CPU) trimSliceToQuantum() {
	cur := c.current
	if cur == nil || cur.prio != PriLow {
		return
	}
	q := c.quantumFor(cur)
	effStart := c.sliceStart + c.curOverhead
	elapsed := c.k.Now() - effStart
	if elapsed < 0 {
		elapsed = 0
	}
	// Next quantum boundary at or after now.
	boundaries := elapsed / q
	if elapsed%q != 0 {
		boundaries++
	}
	if boundaries == 0 {
		boundaries = 1
	}
	end := effStart + boundaries*q
	if full := effStart + cur.remaining; full < end {
		end = full
	}
	if c.slice.Pending() && c.slice.At() == end {
		return
	}
	c.slice.Reset(end)
}

// dispatch starts the next burst if the CPU is idle.
func (c *CPU) dispatch() {
	if c.current != nil {
		return
	}
	var b *burst
	switch {
	case c.highQ.Len() > 0:
		b = c.highQ.Pop()
	case c.lowQ.Len() > 0:
		b = c.lowQ.Pop()
	default:
		return
	}
	b.queued = false
	c.current = b
	c.sliceStart = c.k.Now()
	c.stats.Dispatches++
	run := b.remaining
	ov := sim.Time(0)
	if b.prio == PriLow {
		if q := c.quantumFor(b); c.lowQ.Len() > 0 && run > q {
			run = q
		}
		if c.switchCost > 0 && groupOf(b) != c.lastLowGroup {
			ov = c.switchCost
			c.stats.GroupSwitches++
		}
		c.lastLowGroup = groupOf(b)
	}
	c.curOverhead = ov
	c.slice.Reset(c.k.Now() + ov + run)
}

// stopSlice cancels the running slice and charges the elapsed time: first to
// switch overhead, the rest to the current burst. The caller decides what to
// do with c.current afterwards.
func (c *CPU) stopSlice() {
	cur := c.current
	if cur == nil {
		return
	}
	c.slice.Stop()
	c.accountSlice(cur)
}

// accountSlice splits the elapsed slice time between switch overhead and
// burst work.
func (c *CPU) accountSlice(cur *burst) {
	elapsed := c.k.Now() - c.sliceStart
	ovUsed := c.curOverhead
	if ovUsed > elapsed {
		ovUsed = elapsed
	}
	work := elapsed - ovUsed
	if work > cur.remaining {
		work = cur.remaining
	}
	cur.remaining -= work
	c.stats.BusySwitch += ovUsed
	c.curOverhead -= ovUsed
	c.charge(cur.prio, work)
}

func (c *CPU) charge(prio Priority, d sim.Time) {
	if prio == PriHigh {
		c.stats.BusyHigh += d
	} else {
		c.stats.BusyLow += d
	}
}

// onSliceEnd fires when the running slice's timer expires: either the burst
// finished or its quantum ran out.
func (c *CPU) onSliceEnd() {
	cur := c.current
	c.accountSlice(cur)
	c.current = nil
	if cur.remaining <= 0 {
		c.complete(cur)
	} else {
		// Quantum expiry: back of the low queue.
		c.stats.QuantumExpiries++
		cur.queued = true
		c.lowQ.Push(cur)
	}
	c.dispatch()
}

func (c *CPU) complete(b *burst) {
	if b.task != nil {
		b.task.burst = nil
	}
	if b.onDone != nil {
		b.onDone()
	}
	if b.owner != nil {
		b.owner.Wake()
	}
}

// removeQueued deletes a burst from its ready queue, keeping the order of
// the rest.
func (c *CPU) removeQueued(b *burst) {
	q := &c.lowQ
	if b.prio == PriHigh {
		q = &c.highQ
	}
	if fifo.Delete(q, b) {
		b.queued = false
		return
	}
	panic(fmt.Sprintf("machine: node %d burst not found in %v queue", c.node, b.prio))
}

// QueueLens reports the current ready-queue lengths (high, low), excluding
// the running burst. Useful in tests and tracing.
func (c *CPU) QueueLens() (int, int) { return c.highQ.Len(), c.lowQ.Len() }

// CPUState is the CPU's persistent cross-job state: the accumulated
// statistics plus the identity of the last low-priority group dispatched
// (which decides whether the next dispatch pays the group-switch overhead).
// It is everything a CPU carries across jobs — run queues and the current
// burst are transient and empty at any quiescent instant.
type CPUState struct {
	Stats        CPUStats `json:"stats"`
	LastLowGroup int      `json:"last_low_group"`
}

// SnapshotState captures the cross-job state. Call only when the CPU is
// idle (no current burst, empty queues); it panics otherwise, because an
// open slice holds unaccounted busy time that a snapshot would lose.
func (c *CPU) SnapshotState() CPUState {
	if c.current != nil || c.highQ.Len() != 0 || c.lowQ.Len() != 0 {
		panic(fmt.Sprintf("machine: snapshot of busy CPU on node %d", c.node))
	}
	return CPUState{Stats: c.stats, LastLowGroup: c.lastLowGroup}
}

// RestoreState installs a donor CPU's cross-job state into this (idle) CPU.
func (c *CPU) RestoreState(st CPUState) {
	c.stats = st.Stats
	c.lastLowGroup = st.LastLowGroup
}

// Running reports whether a burst is currently executing.
func (c *CPU) Running() bool { return c.current != nil }
