package sim

// event is a scheduled callback. Events with equal activation time fire in
// insertion (sequence) order, which is what makes the kernel deterministic.
//
// Events are pooled: when one fires or its cancellation is collected, the
// kernel bumps its generation and puts it on a free list for the next
// At/After to reuse, so steady-state scheduling does not allocate. Timer
// handles snapshot the generation they were issued for, which makes a stale
// handle (whose event has since been recycled) inert rather than dangerous.
type event struct {
	k         *Kernel
	at        Time
	gen       uint64
	fn        func()
	cancelled bool
}

// Timer is a handle to a scheduled event that can be cancelled or queried.
// It is a plain value (scheduling allocates nothing for it); the zero Timer
// behaves like one that already fired: Stop and Pending report false.
type Timer struct {
	ev  *event
	gen uint64
}

// valid reports whether the handle still refers to the event it was issued
// for. The kernel recycles an event the moment it leaves the queue, so a
// valid handle's event is always queued.
func (t Timer) valid() bool { return t.ev != nil && t.ev.gen == t.gen }

// At reports the simulated time the timer is set to fire, or 0 if the timer
// already fired or was stopped and collected.
func (t Timer) At() Time {
	if !t.valid() {
		return 0
	}
	return t.ev.at
}

// Stop cancels the timer. It reports whether the timer was still pending
// (true) or had already fired or been stopped (false). Stopping a fired,
// stopped, or zero timer is a no-op. Stop drops the event's callback
// immediately, so anything the closure captures becomes collectable before
// the dead event surfaces in the queue.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.ev.cancelled = true
	t.ev.fn = nil
	t.ev.k.live--
	return true
}

// Pending reports whether the timer is still waiting to fire.
func (t Timer) Pending() bool {
	return t.valid() && !t.ev.cancelled
}

// entry is one heap slot: the event's (at, seq) key inline, so sifting
// compares keys without loading the event. seq is globally unique, which
// makes (at, seq) a total order and the pop order independent of the heap's
// shape.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of entries ordered by (at, seq). The wider
// node halves the depth of a binary heap, and sifting moves a hole instead
// of swapping, so each level costs one copy.
type eventQueue struct {
	items []entry
}

func (q *eventQueue) push(e entry) {
	q.items = append(q.items, e)
	items := q.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = e
}

// pop removes and returns the minimum; call only on a non-empty queue.
func (q *eventQueue) pop() *event {
	items := q.items
	top := items[0].ev
	n := len(items) - 1
	last := items[n]
	items[n] = entry{}
	items = items[:n]
	q.items = items
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := min(first+4, n)
		least := first
		for c := first + 1; c < end; c++ {
			if items[c].before(&items[least]) {
				least = c
			}
		}
		if !items[least].before(&last) {
			break
		}
		items[i] = items[least]
		i = least
	}
	if n > 0 {
		items[i] = last
	}
	return top
}
