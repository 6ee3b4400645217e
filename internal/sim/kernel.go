package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// nowQShedCap bounds the same-timestamp FIFO's retained capacity: a burst
// can grow it arbitrarily, but once drained anything bigger than this is
// released back to the garbage collector.
const nowQShedCap = 4096

// Kernel is a deterministic discrete-event simulation engine.
//
// All simulation state must only be touched from "kernel context": inside
// event callbacks scheduled with At/After, or inside process bodies spawned
// with Spawn. The kernel guarantees that exactly one of these runs at a time.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventQueue
	// nowQ is the same-timestamp fast path: events scheduled for the
	// current time (the After(0) hand-off bursts that dominate equal-time
	// runs) go to this FIFO instead of the heap. Because seq is globally
	// monotonic, FIFO order here *is* (at, seq) order, and any heap event
	// at the same timestamp predates (so precedes) every FIFO entry —
	// pop order is exactly the heap-only order at a fraction of the
	// comparisons.
	nowQ    []*event
	nowHead int
	// free is the event pool: fired and collected-cancelled events are
	// recycled (with a bumped generation) instead of handed to the GC.
	free    []*event
	live    int // non-cancelled queued events, kept in sync by push/pop/Stop
	rng     *rand.Rand
	procs   map[*Proc]struct{}
	nextPID int
	idle    []*coro // coroutines of finished processes, for reuse

	running bool
	stopped bool

	// eventsRun counts executed (non-cancelled) events — the simulator's
	// work metric, useful for performance comparisons of model changes.
	eventsRun int64
}

// NewKernel returns a kernel with its clock at zero and a deterministic
// random source seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be used
// from kernel context so that draws happen in a reproducible order.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Reseed replaces the kernel's random source with a fresh generator seeded
// with seed. Warm-state forking uses it so that a cold run that diverges
// mid-flight and a restored snapshot continue from the same RNG state: both
// sides hold a fresh stream at the fork instant.
func (k *Kernel) Reseed(seed int64) {
	k.rng = rand.New(rand.NewSource(seed))
}

// NextEventAt reports the activation time of the next live pending event.
// ok is false when the queue holds no live events. Cancelled-but-unswept
// events at the front are collected on the way (they would never fire).
func (k *Kernel) NextEventAt() (t Time, ok bool) {
	for {
		ev := k.peekNext()
		if ev == nil {
			return 0, false
		}
		if ev.cancelled {
			k.recycle(k.popNext(MaxTime))
			continue
		}
		return ev.at, true
	}
}

// RestoreClock advances the clock to t and sets the executed-event counter,
// without running anything. It is the warm-start resume primitive: after a
// restored simulation has re-armed its pending events (all at times > t),
// RestoreClock positions the kernel exactly where the donor run stood. It
// panics if a live pending event would then be in the past — that would let
// the clock move backwards, which no deterministic schedule survives.
func (k *Kernel) RestoreClock(t Time, eventsRun int64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: RestoreClock to %v behind current time %v", t, k.now))
	}
	if at, ok := k.NextEventAt(); ok && at < t {
		panic(fmt.Sprintf("sim: RestoreClock to %v past pending event at %v", t, at))
	}
	k.now = t
	k.eventsRun = eventsRun
}

// After schedules fn to run d microseconds from now and returns a cancellable
// timer. A non-positive delay schedules the event at the current time; it
// still runs through the event queue, after events already scheduled for now.
func (k *Kernel) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// At schedules fn to run at absolute simulated time t.
func (k *Kernel) At(t Time, fn func()) Timer {
	ev := k.schedule(t, fn)
	return Timer{ev: ev, gen: ev.gen}
}

// AfterFunc schedules fn to run d microseconds from now without returning a
// handle — the zero-cost path for the many timers that are never cancelled
// (router hop hand-offs, sleeps, retry timeouts, process wake-ups).
func (k *Kernel) AfterFunc(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, fn)
}

// AtFunc schedules fn at absolute time t without returning a handle.
func (k *Kernel) AtFunc(t Time, fn func()) {
	k.schedule(t, fn)
}

// schedule allocates (or recycles) the event and queues it.
func (k *Kernel) schedule(t Time, fn func()) *event {
	if t < k.now {
		t = k.now
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{k: k}
	}
	k.seq++
	ev.at = t
	ev.fn = fn
	ev.cancelled = false
	if t == k.now {
		k.nowQ = append(k.nowQ, ev)
	} else {
		k.queue.push(entry{at: t, seq: k.seq, ev: ev})
	}
	k.live++
	return ev
}

// recycle returns a dequeued event to the pool. Bumping the generation makes
// every outstanding Timer handle for it inert.
func (k *Kernel) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	k.free = append(k.free, ev)
}

// nowQFirst reports whether the FIFO head precedes the heap's minimum.
// Heap events at the FIFO's timestamp carry older sequence numbers than any
// FIFO entry (they were pushed before the clock reached now), so the heap
// wins ties.
func (k *Kernel) nowQFirst() bool {
	return k.nowHead < len(k.nowQ) &&
		(len(k.queue.items) == 0 || k.queue.items[0].at > k.nowQ[k.nowHead].at)
}

// peekNext returns the next event in (at, seq) order without dequeuing it,
// or nil when nothing is queued.
func (k *Kernel) peekNext() *event {
	if k.nowQFirst() {
		return k.nowQ[k.nowHead]
	}
	if len(k.queue.items) == 0 {
		return nil
	}
	return k.queue.items[0].ev
}

// popNext dequeues the next event in (at, seq) order if it activates at or
// before limit, and returns nil otherwise.
func (k *Kernel) popNext(limit Time) *event {
	if k.nowQFirst() {
		ev := k.nowQ[k.nowHead]
		if ev.at > limit {
			return nil
		}
		k.nowHead++
		if k.nowHead == len(k.nowQ) {
			if cap(k.nowQ) > nowQShedCap {
				k.nowQ = nil
			} else {
				k.nowQ = k.nowQ[:0]
			}
			k.nowHead = 0
		}
		return ev
	}
	if len(k.queue.items) == 0 || k.queue.items[0].at > limit {
		return nil
	}
	return k.queue.pop()
}

// Run executes events until the queue is empty. Processes that are still
// parked when the queue drains are left parked (daemons waiting for work are
// normal); call Shutdown to unwind them. Run panics if a process body panics.
func (k *Kernel) Run() {
	k.RunUntil(MaxTime)
}

// RunUntil executes events with activation time <= limit. The clock is left at
// the last executed event (it does not jump to limit if the queue drains
// early).
func (k *Kernel) RunUntil(limit Time) {
	if k.running {
		panic("sim: RunUntil called re-entrantly")
	}
	k.running = true
	defer func() {
		k.running = false
		k.releaseIdle()
	}()
	for k.fire(limit) {
	}
}

// fire runs the next live event activating at or before limit, collecting
// cancelled ones on the way, and reports whether it ran one.
func (k *Kernel) fire(limit Time) bool {
	for {
		ev := k.popNext(limit)
		if ev == nil {
			return false
		}
		if ev.cancelled {
			k.recycle(ev)
			continue
		}
		k.live--
		k.now = ev.at
		k.eventsRun++
		fn := ev.fn
		// Recycle before firing: the slot is free for whatever fn
		// schedules, and the bumped generation makes the fired event's
		// own Timer handles report not-pending, as they should.
		k.recycle(ev)
		fn()
		return true
	}
}

// EventsRun reports the number of events executed so far.
func (k *Kernel) EventsRun() int64 { return k.eventsRun }

// Step executes exactly one pending event and reports whether one was run.
func (k *Kernel) Step() bool { return k.fire(MaxTime) }

// PendingEvents reports the number of live events in the queue. The count is
// maintained incrementally on schedule/fire/Stop, so this is O(1).
func (k *Kernel) PendingEvents() int { return k.live }

// Shutdown unwinds every started process that has not finished, running
// its deferred cleanup, so no goroutines leak when the simulation is
// discarded; steppers hold no stack and are simply dropped. It must be
// called from outside Run. After Shutdown the kernel must not be reused.
func (k *Kernel) Shutdown() {
	if k.stopped {
		return
	}
	k.stopped = true
	live := make([]*Proc, 0, len(k.procs))
	for p := range k.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, p := range live {
		if p.co == nil {
			// A stepper, or a process that never started: there is
			// no body to unwind.
			p.finished = true
			delete(k.procs, p)
			continue
		}
		// The parked yield returns false and Park unwinds the body.
		p.co.stop()
	}
	k.releaseIdle()
}

// ParkedProcs returns the names of processes currently parked, sorted by
// process id. Useful for diagnosing stalls (e.g. memory deadlock).
func (k *Kernel) ParkedProcs() []string {
	var out []*Proc
	for p := range k.procs {
		if p.parked {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	names := make([]string, len(out))
	for i, p := range out {
		names[i] = fmt.Sprintf("%s (parked: %s)", p.Name(), p.reason())
	}
	return names
}

// LiveProcs reports the number of processes that have not finished.
func (k *Kernel) LiveProcs() int { return len(k.procs) }
