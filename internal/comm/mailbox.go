package comm

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Mailbox is a FIFO message queue owned by one simulated process. Any number
// of senders may target it; receives are in delivery order.
type Mailbox struct {
	addr    Addr
	queue   []*Message
	waiters []*sim.Proc
	// retired marks a mailbox of a killed job: deliveries dead-letter
	// (see Network.RetireMailbox).
	retired bool
}

// Addr returns the mailbox address.
func (b *Mailbox) Addr() Addr { return b.addr }

// Len reports the number of undelivered messages queued.
func (b *Mailbox) Len() int { return len(b.queue) }

// deliver appends a message and wakes one waiter.
func (b *Mailbox) deliver(m *Message) {
	b.queue = append(b.queue, m)
	if len(b.waiters) > 0 {
		w := b.waiters[0]
		b.waiters = slices.Delete(b.waiters, 0, 1)
		w.Wake()
	}
}

// take blocks the calling process until a message is available and removes
// it from the queue.
func (b *Mailbox) take(p *sim.Proc) *Message {
	// Scrub the waiter entry even when the process unwinds out of Park
	// (abort path); redundant removal on the normal path is harmless.
	defer b.removeWaiter(p)
	for len(b.queue) == 0 {
		b.waiters = append(b.waiters, p)
		p.Wait((*recvWhy)(b))
		// A spurious wake leaves us queued as a waiter twice; scrub.
		b.removeWaiter(p)
	}
	m := b.queue[0]
	b.queue = slices.Delete(b.queue, 0, 1)
	return m
}

// recvWhy is the lazily formatted park reason of a process waiting on its
// mailbox.
type recvWhy Mailbox

func (b *recvWhy) String() string { return fmt.Sprintf("recv on %v", b.addr) }

func (b *Mailbox) removeWaiter(p *sim.Proc) {
	for i, w := range b.waiters {
		if w == p {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			return
		}
	}
}
