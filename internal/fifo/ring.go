// Package fifo provides Ring, the one FIFO queue type every layer of the
// simulator uses.
package fifo

// Ring is a FIFO queue on a circular buffer. Push and Pop are O(1). The
// buffer doubles when full and keeps its capacity when drained, so a
// steady stream allocates nothing, and popped or removed slots are
// zeroed, so a queue pins nothing it no longer holds. Insert and Remove
// keep the order of the other elements. The zero Ring is an empty queue
// ready to use.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap reports the capacity of the buffer.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// slot maps a position counted from the head to a buffer index.
func (r *Ring[T]) slot(i int) int { return (r.head + i) & (len(r.buf) - 1) }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = v
	r.n++
}

// Pop removes and returns the head. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("fifo: Pop of empty Ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = r.slot(1)
	r.n--
	return v
}

// Front returns a pointer to the head element, valid until the ring next
// changes. It panics on an empty ring.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("fifo: Front of empty Ring")
	}
	return &r.buf[r.head]
}

// At returns the element i places behind the head (At(0) is the head).
func (r *Ring[T]) At(i int) T {
	if uint(i) >= uint(r.n) {
		panic("fifo: Ring index out of range")
	}
	return r.buf[r.slot(i)]
}

// Insert puts v at position i, between the first i elements and the
// rest: Insert(0, v) queues v at the head, Insert(Len(), v) is Push.
func (r *Ring[T]) Insert(i int, v T) {
	if i < 0 || i > r.n {
		panic("fifo: Ring index out of range")
	}
	r.Push(v)
	for j := r.n - 1; j > i; j-- {
		r.buf[r.slot(j)] = r.buf[r.slot(j-1)]
	}
	r.buf[r.slot(i)] = v
}

// Remove deletes and returns the element at position i.
func (r *Ring[T]) Remove(i int) T {
	v := r.At(i)
	for j := i; j < r.n-1; j++ {
		r.buf[r.slot(j)] = r.buf[r.slot(j+1)]
	}
	var zero T
	r.buf[r.slot(r.n-1)] = zero
	r.n--
	return v
}

// Delete removes the first element of r equal to v, keeping the order of
// the rest, and reports whether there was one.
func Delete[T comparable](r *Ring[T], v T) bool {
	for i := 0; i < r.n; i++ {
		if r.buf[r.slot(i)] == v {
			r.Remove(i)
			return true
		}
	}
	return false
}

// grow doubles the buffer, unrolling the queue to start at index 0.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 1))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
