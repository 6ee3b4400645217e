package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fifo"
)

// nowQShedCap bounds the same-timestamp FIFO's retained capacity: a burst
// can grow it arbitrarily, but once drained anything bigger than this is
// released back to the garbage collector.
const nowQShedCap = 4096

// Kernel is a deterministic discrete-event simulation engine.
//
// All simulation state must only be touched from "kernel context": inside
// event callbacks scheduled with AtFunc/AfterFunc or fired by a Timer, or
// inside process bodies spawned with Spawn. The kernel guarantees that
// exactly one of these runs at a time.
//
// The next event is the (at, seq) minimum of three heads: the heap of
// fire-and-forget events, the same-time FIFO, and the tree of re-armable
// timers.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventQueue
	// nowQ is the same-timestamp fast path: events scheduled for the
	// current time (the AfterFunc(0) hand-off bursts that dominate
	// equal-time runs) go to this FIFO instead of the heap. Because seq is
	// globally monotonic, FIFO order here *is* (at, seq) order, and any
	// heap event at the same timestamp predates (so precedes) every FIFO
	// entry, so choosing between the two compares times only. A timer
	// Reset to now can be older or newer than FIFO entries, so the timer
	// tree's head is compared by the full key.
	nowQ    fifo.Ring[entry]
	timers  timerTree
	rng     *rand.Rand
	procs   map[*Proc]struct{}
	nextPID int
	idle    []*coro // coroutines of finished processes, for reuse

	running bool
	stopped bool

	// eventsRun counts executed events — the simulator's work metric,
	// useful for performance comparisons of model changes.
	eventsRun int64
}

// NewKernel returns a kernel with its clock at zero and a deterministic
// random source seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:    rand.New(rand.NewSource(seed)),
		procs:  make(map[*Proc]struct{}),
		timers: newTimerTree(),
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

// NextEventAt reports the activation time of the next pending event, armed
// timers included. ok is false when nothing is pending.
func (k *Kernel) NextEventAt() (t Time, ok bool) {
	k.timers.settle()
	if e, _ := k.next(); e != nil {
		return e.at, true
	}
	return 0, false
}

// RestoreClock advances the clock to t and sets the executed-event counter,
// without running anything. It is the warm-start resume primitive: after a
// restored simulation has re-armed its pending events (all at times > t),
// RestoreClock positions the kernel exactly where the donor run stood. It
// panics if a pending event would then be in the past — that would let
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

// AfterFunc schedules fn to run d microseconds from now. A non-positive
// delay schedules the event at the current time; it still runs through the
// event queue, after events already scheduled for now. Scheduled events
// cannot be cancelled: an owner that needs to stop or move its expiry
// keeps one Timer instead.
func (k *Kernel) AfterFunc(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.AtFunc(k.now+d, fn)
}

// AtFunc schedules fn at absolute time t, clamped to now.
func (k *Kernel) AtFunc(t Time, fn func()) {
	k.seq++
	if t <= k.now {
		k.nowQ.Push(entry{at: k.now, seq: k.seq, fn: fn})
		return
	}
	k.queue.push(entry{at: t, seq: k.seq, fn: fn})
}

// Event sources, as next reports them.
const (
	fromTimer = iota
	fromFIFO
	fromHeap
)

// next returns the key of the next event in (at, seq) order and where it
// waits, or nil when nothing is pending. The timer tree must be settled.
func (k *Kernel) next() (*entry, int) {
	e, src := &k.timers.top().ev, fromTimer
	// FIFO entries are all at now, and heap entries at now predate them.
	if k.nowQ.Len() > 0 && (len(k.queue.items) == 0 || k.queue.items[0].at > k.now) {
		if h := k.nowQ.Front(); h.before(e) {
			e, src = h, fromFIFO
		}
	} else if len(k.queue.items) > 0 && k.queue.items[0].before(e) {
		e, src = &k.queue.items[0], fromHeap
	}
	if e.seq == disarmedSeq {
		return nil, 0
	}
	return e, src
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

// fire runs the next event activating at or before limit and reports
// whether it ran one.
func (k *Kernel) fire(limit Time) bool {
	k.timers.settle()
	e, src := k.next()
	if e == nil || e.at > limit {
		return false
	}
	k.now = e.at
	k.eventsRun++
	switch src {
	case fromTimer:
		// Disarm before the callback, so the timer reads not pending
		// there, but leave its path to one replay before the next event:
		// a callback that re-arms its own timer replays it anyway.
		t := k.timers.top()
		t.disarm()
		k.timers.stale = t
		t.ev.fn()
	case fromFIFO:
		fn := k.nowQ.Pop().fn
		if k.nowQ.Len() == 0 && k.nowQ.Cap() > nowQShedCap {
			k.nowQ = fifo.Ring[entry]{}
		}
		fn()
	default:
		k.queue.pop()()
	}
	return true
}

// EventsRun reports the number of events executed so far.
func (k *Kernel) EventsRun() int64 { return k.eventsRun }

// Step executes exactly one pending event and reports whether one was run.
func (k *Kernel) Step() bool { return k.fire(MaxTime) }

// PendingEvents reports the number of pending events, armed timers
// included, in O(1).
func (k *Kernel) PendingEvents() int {
	return len(k.queue.items) + k.nowQ.Len() + k.timers.armed
}

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
