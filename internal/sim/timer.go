package sim

import "math"

// disarmedSeq is the sequence number of a timer that is not pending. With
// at = MaxTime it makes a disarmed timer's key sort after every armed key,
// so the tree compares keys without an armed check.
const disarmedSeq = math.MaxUint64

// Timer is a re-armable timer with a fixed identity: one per long-lived
// owner (a CPU's slice end, a gang partition's rotation), armed and
// re-armed in place as often as the owner needs. It lives beside the event
// heap in the kernel's timer tree, so stopping it leaves no dead entry
// behind and re-arming it costs one tree update instead of a heap push and
// pop. Timers last as long as their kernel. A timer fires in the same
// (at, seq) order as every other event.
type Timer struct {
	ev   entry // the key, disarmed as {MaxTime, disarmedSeq}, and the callback
	k    *Kernel
	leaf int // index of the timer's leaf in the tree
}

// NewTimer creates a stopped timer that runs fn in kernel context each
// time it fires. Creating a timer consumes no sequence number.
func (k *Kernel) NewTimer(fn func()) *Timer {
	t := &Timer{ev: entry{at: MaxTime, seq: disarmedSeq, fn: fn}, k: k}
	k.timers.add(t)
	return t
}

// Pending reports whether the timer is armed. Inside its own callback a
// timer is not pending until the callback re-arms it.
func (t *Timer) Pending() bool { return t.ev.seq != disarmedSeq }

// At reports the time the timer is set to fire, or 0 when it is not
// pending.
func (t *Timer) At() Time {
	if !t.Pending() {
		return 0
	}
	return t.ev.at
}

// Reset arms the timer to fire at absolute time at, clamped to now,
// replacing any pending expiry. The timer takes a fresh sequence number,
// so it orders exactly as an event scheduled by AtFunc at this moment.
func (t *Timer) Reset(at Time) {
	k := t.k
	if at < k.now {
		at = k.now
	}
	if !t.Pending() {
		k.timers.armed++
	}
	k.seq++
	t.ev.at, t.ev.seq = at, k.seq
	if k.timers.stale == t {
		k.timers.stale = nil
	}
	k.timers.fix(t)
}

// Stop disarms the timer. It reports whether the timer was pending.
func (t *Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.disarm()
	t.k.timers.fix(t)
	return true
}

// disarm sets the disarmed key without updating the tree.
func (t *Timer) disarm() {
	t.ev.at, t.ev.seq = MaxTime, disarmedSeq
	t.k.timers.armed--
}

// padding fills the tree's unused leaves: a permanently disarmed timer
// that never wins against a real one and is never armed.
var padding = &Timer{ev: entry{at: MaxTime, seq: disarmedSeq}}

// timerTree is a winner (tournament) tree over the kernel's timers: a
// complete binary tree over a power-of-two number of leaves, leaves at
// nodes[size:], where each internal node holds the earlier of its two
// children's winners and nodes[1] is the earliest timer. Re-keying a timer
// replays its leaf-to-root path with one sibling compare per level. Unused
// leaves hold padding, never a real timer, so a stale winner cannot hide
// in a subtree no update visits.
type timerTree struct {
	nodes  []*Timer
	timers []*Timer
	armed  int
	// stale is the timer fired last: it was disarmed before its callback
	// ran, but its path still names it the winner. The kernel replays the
	// path before it picks the next event, unless the callback re-armed
	// the timer.
	stale *Timer
}

func newTimerTree() timerTree {
	return timerTree{nodes: []*Timer{padding, padding}}
}

// top returns the earliest timer, or padding when none is armed.
func (tt *timerTree) top() *Timer { return tt.nodes[1] }

// fix replays t's path after its key changed: each node on the path takes
// the earlier of the winner carried up and its sibling's winner.
func (tt *timerTree) fix(t *Timer) {
	nodes := tt.nodes
	w := t
	for i := t.leaf; i > 1; i >>= 1 {
		if s := nodes[i^1]; s.ev.before(&w.ev) {
			w = s
		}
		nodes[i>>1] = w
	}
}

// settle replays the path of a fired timer whose callback did not re-arm
// it.
func (tt *timerTree) settle() {
	if t := tt.stale; t != nil {
		tt.stale = nil
		tt.fix(t)
	}
}

// add gives t the next leaf, doubling the tree when no padding leaf is
// left, and rebuilds every winner. Timers are created once per owner, so
// the rebuild is off the hot path.
func (tt *timerTree) add(t *Timer) {
	tt.timers = append(tt.timers, t)
	size := len(tt.nodes) / 2
	if len(tt.timers) > size {
		size *= 2
		tt.nodes = make([]*Timer, 2*size)
	}
	nodes := tt.nodes
	for i := size; i < len(nodes); i++ {
		nodes[i] = padding
	}
	for i, x := range tt.timers {
		x.leaf = size + i
		nodes[x.leaf] = x
	}
	for i := size - 1; i >= 1; i-- {
		w := nodes[2*i]
		if s := nodes[2*i+1]; s.ev.before(&w.ev) {
			w = s
		}
		nodes[i] = w
	}
}
