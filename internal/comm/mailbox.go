package comm

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// Mailbox is a FIFO message queue owned by one simulated process. Any number
// of senders may target it; receives are in delivery order.
type Mailbox struct {
	addr    Addr
	queue   fifo.Ring[*Message]
	waiters fifo.Ring[*sim.Proc]
	// retired marks a mailbox of a killed job: deliveries dead-letter
	// (see Network.RetireMailbox).
	retired bool
}

// Addr returns the mailbox address.
func (b *Mailbox) Addr() Addr { return b.addr }

// Len reports the number of undelivered messages queued.
func (b *Mailbox) Len() int { return b.queue.Len() }

// deliver appends a message and wakes one waiter.
func (b *Mailbox) deliver(m *Message) {
	b.queue.Push(m)
	if b.waiters.Len() > 0 {
		b.waiters.Pop().Wake()
	}
}

// take blocks the calling process until a message is available and removes
// it from the queue.
func (b *Mailbox) take(p *sim.Proc) *Message {
	// Scrub the waiter entry even when the process unwinds out of Park
	// (abort path); redundant removal on the normal path is harmless.
	defer fifo.Delete(&b.waiters, p)
	for b.queue.Len() == 0 {
		b.waiters.Push(p)
		p.Wait((*recvWhy)(b))
		// A spurious wake leaves us queued as a waiter twice; scrub.
		fifo.Delete(&b.waiters, p)
	}
	return b.queue.Pop()
}

// recvWhy is the lazily formatted park reason of a process waiting on its
// mailbox.
type recvWhy Mailbox

func (b *recvWhy) String() string { return fmt.Sprintf("recv on %v", b.addr) }
