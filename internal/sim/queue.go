package sim

// entry is one scheduled callback with its (at, seq) key inline, so
// ordering compares keys without a pointer load. seq is globally unique,
// which makes (at, seq) a total order: events with equal activation time
// fire in scheduling order, and the pop order is independent of the heap's
// shape. That is what makes the kernel deterministic.
type entry struct {
	at  Time
	seq uint64
	fn  func()
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of fire-and-forget entries ordered by
// (at, seq). Nothing in it can be cancelled: cancellable timers live in
// the kernel's timer tree instead, so every popped entry fires. The wider
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

// pop removes the minimum and returns its callback; call only on a
// non-empty queue.
func (q *eventQueue) pop() func() {
	items := q.items
	top := items[0].fn
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
