package machine

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// LinkStats aggregates one direction's accounting.
type LinkStats struct {
	// BusyTime is the simulated time the direction was occupied.
	BusyTime sim.Time
	// Transfers counts completed occupancies; Bytes the payload moved.
	Transfers, Bytes int64
	// WaitTime accumulates time spent queued for the direction.
	WaitTime sim.Time
}

// HalfLink is one direction of a physical link: a serially-reusable resource
// with a FIFO acquire queue. Under store-and-forward each direction has a
// single sending router, so the queue is usually empty; under wormhole
// routing several worms can contend for the same channel and queue here.
type HalfLink struct {
	k        *sim.Kernel
	name     string
	busy     bool
	busyFrom sim.Time
	waiters  fifo.Ring[*LinkWaiter]
	stats    LinkStats
}

// LinkWaiter is one queued acquire of a half-link. A stackless caller owns
// its record across steps; Acquire allocates one only when it must queue.
type LinkWaiter struct {
	proc    *sim.Proc
	since   sim.Time
	granted bool
}

// NewHalfLink creates one link direction with a diagnostic name.
func NewHalfLink(k *sim.Kernel, name string) *HalfLink {
	return &HalfLink{k: k, name: name}
}

// Name returns the diagnostic name ("link 3->7").
func (h *HalfLink) Name() string { return h.name }

// Stats returns a copy of the direction's statistics.
func (h *HalfLink) Stats() LinkStats { return h.stats }

// RestoreStats installs a donor direction's accumulated statistics. Warm
// restores call it per direction — per-direction, not aggregated, because
// downstream metrics take a max over directions, which an aggregate would
// corrupt. The direction must be idle (not held, nobody queued).
func (h *HalfLink) RestoreStats(st LinkStats) {
	if h.busy || h.waiters.Len() != 0 {
		panic(fmt.Sprintf("machine: restore into busy link %s", h.name))
	}
	h.stats = st
}

// Busy reports whether the direction is currently held.
func (h *HalfLink) Busy() bool { return h.busy }

// Acquire takes exclusive hold of the direction, blocking the calling
// process FIFO until it is free.
func (h *HalfLink) Acquire(p *sim.Proc) {
	w := h.Request(p, nil)
	if w == nil {
		return
	}
	// Unwind cleanly if the waiting process is aborted: drop the queued
	// request, or release the hold when the grant raced the abort.
	defer func() {
		if r := recover(); r != nil {
			if w.granted {
				h.Release()
			} else {
				fifo.Delete(&h.waiters, w)
			}
			panic(r)
		}
	}()
	h.Await(p, w)
}

// Request is Acquire's non-blocking half. It takes the direction at once
// and returns nil when it is free and nobody queues, marking w (if any)
// granted; otherwise it queues p FIFO on w (a fresh record when w is nil)
// and returns it. Await finishes the acquire.
func (h *HalfLink) Request(p *sim.Proc, w *LinkWaiter) *LinkWaiter {
	now := h.k.Now()
	if !h.busy && h.waiters.Len() == 0 {
		h.busy = true
		h.busyFrom = now
		if w != nil {
			*w = LinkWaiter{granted: true, since: now}
		}
		return nil
	}
	if w == nil {
		w = new(LinkWaiter)
	}
	*w = LinkWaiter{proc: p, since: now}
	h.waiters.Push(w)
	return w
}

// Await waits until the request w is granted, then books its queueing time
// (none for a request granted at once). Like sim.Proc.Wait, it reports
// whether a stepper parked and must return.
func (h *HalfLink) Await(p *sim.Proc, w *LinkWaiter) bool {
	for !w.granted {
		if p.Wait((*acquireWhy)(h)) {
			return true
		}
	}
	h.stats.WaitTime += h.k.Now() - w.since
	return false
}

// acquireWhy is the lazily formatted park reason of a process queued for
// a link direction.
type acquireWhy HalfLink

func (h *acquireWhy) String() string { return "acquire " + h.name }

// Release frees the direction and hands it to the next waiter, if any.
func (h *HalfLink) Release() {
	if !h.busy {
		panic(fmt.Sprintf("machine: release of idle %s", h.name))
	}
	h.stats.BusyTime += h.k.Now() - h.busyFrom
	if h.waiters.Len() > 0 {
		w := h.waiters.Pop()
		w.granted = true
		h.busyFrom = h.k.Now()
		w.proc.Wake()
		return
	}
	h.busy = false
}

// CountTransfer records a completed payload movement for utilization
// reporting. Call while holding the direction.
func (h *HalfLink) CountTransfer(bytes int64) {
	h.stats.Transfers++
	h.stats.Bytes += bytes
}

// Link is a full-duplex physical wire between two nodes, as configured by
// the INMOS C004 switch fabric for a partition topology.
type Link struct {
	A, B int // node ids
	AtoB *HalfLink
	BtoA *HalfLink
}

// NewLink wires nodes a and b.
func NewLink(k *sim.Kernel, a, b int) *Link {
	return &Link{
		A:    a,
		B:    b,
		AtoB: NewHalfLink(k, fmt.Sprintf("link %d->%d", a, b)),
		BtoA: NewHalfLink(k, fmt.Sprintf("link %d->%d", b, a)),
	}
}

// Dir returns the half-link carrying traffic from node `from` across this
// link; it panics if from is not an endpoint.
func (l *Link) Dir(from int) *HalfLink {
	switch from {
	case l.A:
		return l.AtoB
	case l.B:
		return l.BtoA
	default:
		panic(fmt.Sprintf("machine: node %d is not on link %d-%d", from, l.A, l.B))
	}
}
