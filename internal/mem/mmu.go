// Package mem models the per-node memory management unit of the simulated
// multicomputer.
//
// Every T805 node in the paper's system has 4 MB of local memory managed by a
// software MMU. The MMU serves two demand streams: application data (matrix
// slices, sub-arrays) and mailbox buffers for the store-and-forward message
// system. When memory is tight an allocation blocks until enough is freed —
// the paper points out that "a message can suffer a delay if an intermediate
// processor delays allocation of memory for the mailbox", and that delay is
// one of the main reasons time-sharing loses to space-sharing at high
// multiprogramming levels. This package reproduces that mechanism and keeps
// the statistics needed to show it.
package mem

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// NodeMemory is the local memory of one T805 node (4 MB), the paper's
// hardware configuration.
const NodeMemory int64 = 4 << 20

// Class labels an allocation for accounting purposes.
type Class int

const (
	// ClassData is long-lived application data (program arrays).
	ClassData Class = iota
	// ClassBuffer is a transient store-and-forward message buffer.
	ClassBuffer
)

func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassBuffer:
		return "buffer"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Stats aggregates what the MMU observed during a run.
type Stats struct {
	// Peak is the maximum number of bytes simultaneously allocated.
	Peak int64
	// Allocs and Frees count operations.
	Allocs, Frees int64
	// BlockedAllocs counts allocations that had to wait for memory.
	BlockedAllocs int64
	// BlockedTime accumulates simulated time spent waiting, over all waiters.
	BlockedTime sim.Time
	// BytesData / BytesBuffer classify total bytes allocated.
	BytesData, BytesBuffer int64
}

// Waiter is a queued allocation request. Its grant happens inside the MMU
// (admit) so FIFO order cannot be subverted while the wake event is in
// flight; the waiting process only records its blocked time on resume. A
// stackless caller owns its record across steps; Alloc allocates one only
// when it must queue.
type Waiter struct {
	proc    *sim.Proc
	node    int
	bytes   int64
	class   Class
	since   sim.Time
	granted bool
}

// MMU is a node's memory allocator. Allocation is first-come-first-served:
// a large request at the head of the queue blocks later small ones, which is
// how a FIFO buffer-pool allocator behaves and is the conservative choice
// for congestion effects.
type MMU struct {
	k        *sim.Kernel
	node     int
	capacity int64
	used     int64
	waiters  fifo.Ring[*Waiter]
	stats    Stats
}

// New creates an MMU with the given capacity in bytes (use NodeMemory for
// the paper's configuration).
func New(k *sim.Kernel, node int, capacity int64) *MMU {
	if capacity <= 0 {
		panic(fmt.Sprintf("mem: node %d capacity %d", node, capacity))
	}
	return &MMU{k: k, node: node, capacity: capacity}
}

// Capacity returns the total memory in bytes.
func (m *MMU) Capacity() int64 { return m.capacity }

// Used returns the bytes currently allocated (including reservations made
// for woken-but-not-yet-resumed waiters).
func (m *MMU) Used() int64 { return m.used }

// Free returns the bytes currently available.
func (m *MMU) Free() int64 { return m.capacity - m.used }

// Waiting reports the number of allocation requests currently blocked.
func (m *MMU) Waiting() int { return m.waiters.Len() }

// PendingBytes reports the total bytes requested by blocked allocations.
func (m *MMU) PendingBytes() int64 {
	var sum int64
	for i := 0; i < m.waiters.Len(); i++ {
		sum += m.waiters.At(i).bytes
	}
	return sum
}

// OldestWaiter describes the queue-head request for diagnostics; empty when
// nothing waits.
func (m *MMU) OldestWaiter() string {
	if m.waiters.Len() == 0 {
		return ""
	}
	w := m.waiters.At(0)
	return fmt.Sprintf("%s wants %dB (waiting since %s)", w.proc.Name(), w.bytes, w.since)
}

// Stats returns a copy of the accumulated statistics.
func (m *MMU) Stats() Stats { return m.stats }

// RestoreStats installs a donor MMU's accumulated statistics. Warm restores
// call it at quiescent instants only: nothing may be allocated or waiting,
// because used bytes and queued requests are transient state a snapshot
// deliberately excludes.
func (m *MMU) RestoreStats(st Stats) {
	if m.used != 0 || m.waiters.Len() != 0 {
		panic(fmt.Sprintf("mem: restore into busy MMU on node %d", m.node))
	}
	m.stats = st
}

// NodeID returns the node this MMU belongs to.
func (m *MMU) NodeID() int { return m.node }

// TryAlloc attempts a non-blocking allocation; it reports success. A request
// larger than the whole memory always fails. To preserve FIFO fairness a
// TryAlloc fails whenever an earlier blocked request is still waiting.
func (m *MMU) TryAlloc(bytes int64, class Class) bool {
	if bytes < 0 {
		panic("mem: negative allocation")
	}
	if bytes == 0 {
		return true
	}
	if bytes > m.capacity || m.waiters.Len() > 0 || m.used+bytes > m.capacity {
		return false
	}
	m.grant(bytes, class)
	return true
}

// Alloc obtains bytes of memory for the calling process, blocking in FIFO
// order until enough is free. An allocation larger than total capacity can
// never succeed and panics (a configuration error, not a runtime condition).
func (m *MMU) Alloc(p *sim.Proc, bytes int64, class Class) {
	w := m.Request(p, bytes, class, nil)
	if w == nil {
		return
	}
	// If the process is aborted while blocked here, unwind cleanly: drop the
	// queued request, or — when the grant raced the abort — return the bytes.
	defer func() {
		if r := recover(); r != nil {
			if w.granted {
				m.FreeBytes(bytes)
			} else {
				m.removeWaiter(w)
			}
			panic(r)
		}
	}()
	m.Await(p, w)
}

// Request is Alloc's non-blocking half. It grants the bytes at once and
// returns nil when the FIFO allows, marking w (if any) granted; otherwise
// it queues the request on w (a fresh record when w is nil) and returns it.
// Await finishes the allocation.
func (m *MMU) Request(p *sim.Proc, bytes int64, class Class, w *Waiter) *Waiter {
	if bytes > m.capacity {
		panic(fmt.Sprintf("mem: node %d request %d exceeds capacity %d", m.node, bytes, m.capacity))
	}
	if m.TryAlloc(bytes, class) {
		if w != nil {
			*w = Waiter{granted: true, since: m.k.Now()}
		}
		return nil
	}
	if w == nil {
		w = new(Waiter)
	}
	*w = Waiter{proc: p, node: m.node, bytes: bytes, class: class, since: m.k.Now()}
	m.waiters.Push(w)
	m.stats.BlockedAllocs++
	return w
}

// Await waits until the request w is granted, then books its blocked time
// (none for a request granted at once). Like sim.Proc.Wait, it reports
// whether a stepper parked and must return.
func (m *MMU) Await(p *sim.Proc, w *Waiter) bool {
	for !w.granted {
		if p.Wait((*allocWhy)(w)) {
			return true
		}
	}
	m.stats.BlockedTime += m.k.Now() - w.since
	return false
}

// allocWhy is the lazily formatted park reason of a blocked allocation.
type allocWhy Waiter

func (w *allocWhy) String() string { return fmt.Sprintf("mem alloc %dB on node %d", w.bytes, w.node) }

// removeWaiter deletes a pending request from the queue (abort path).
func (m *MMU) removeWaiter(w *Waiter) {
	if fifo.Delete(&m.waiters, w) {
		// The head may have changed; later requests may now fit.
		m.admit()
	}
}

func (m *MMU) grant(bytes int64, class Class) {
	m.used += bytes
	if m.used > m.stats.Peak {
		m.stats.Peak = m.used
	}
	m.stats.Allocs++
	switch class {
	case ClassBuffer:
		m.stats.BytesBuffer += bytes
	default:
		m.stats.BytesData += bytes
	}
}

// FreeBytes returns memory to the pool and unblocks eligible waiters in FIFO
// order. Freeing more than is allocated panics: that is always an accounting
// bug in the caller.
func (m *MMU) FreeBytes(bytes int64) {
	if bytes < 0 {
		panic("mem: negative free")
	}
	if bytes == 0 {
		return
	}
	if bytes > m.used {
		panic(fmt.Sprintf("mem: node %d freeing %d with only %d allocated", m.node, bytes, m.used))
	}
	m.used -= bytes
	m.stats.Frees++
	m.admit()
}

// admit grants queue-head waiters whose requests now fit and wakes them.
func (m *MMU) admit() {
	for m.waiters.Len() > 0 {
		w := m.waiters.At(0)
		if m.used+w.bytes > m.capacity {
			return
		}
		m.waiters.Pop()
		m.grant(w.bytes, w.class)
		w.granted = true
		w.proc.Wake()
	}
}
