package comm

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// This file holds the network's fault-robustness machinery: link up/down
// state with deterministic BFS detour routing, injected message drops, and
// sender-side timeout-and-retry with duplicate suppression. All of it is
// inert — zero branches taken, zero random draws — until a fault injector or
// the scheduler switches it on, so fault-free runs are bit-identical to the
// pre-fault simulator.
//
// The robustness features model the store-and-forward mailbox system only;
// the scheduler rejects configurations combining them with wormhole mode.

// SetDropFn installs the injected-drop decision function consulted once per
// completed link traversal (nil disables). The injector's function draws
// from its private stream, so kernel determinism is preserved.
func (n *Network) SetDropFn(fn func() bool) { n.dropFn = fn }

// SetFailureHandler installs the delivery-failure callback invoked in kernel
// context when a reliable message exhausts its retry budget. The scheduler
// uses it to kill and requeue the affected job.
func (n *Network) SetFailureHandler(fn func(*Message)) { n.onFailure = fn }

// EnableReliability switches on per-message delivery timeouts: a message not
// delivered within timeout is retransmitted with exponential backoff
// (timeout, 2x, 4x, ...), at most budget times, after which the failure
// handler is told. Must be configured before any traffic.
func (n *Network) EnableReliability(timeout sim.Time, budget int) {
	if timeout <= 0 || budget < 1 {
		panic(fmt.Sprintf("comm: reliability timeout %v budget %d", timeout, budget))
	}
	n.retryTimeout = timeout
	n.retryCap = budget
	n.pending = make(map[int64]*retryState)
}

// SetLinkState applies a link fault or repair, addressed by global node ids.
// Pairs that are not a physical link of this partition are ignored, so the
// scheduler can broadcast machine-wide fault events to every partition
// network. Taking a link down drains its port queues back through routing,
// so queued messages detour immediately (or are dropped when the
// destination became unreachable).
func (n *Network) SetLinkState(globalA, globalB int, up bool) {
	a, okA := n.localOf[globalA]
	b, okB := n.localOf[globalB]
	if !okA || !okB {
		return
	}
	if b < a {
		a, b = b, a
	}
	key := [2]int{a, b}
	if _, isLink := n.links[key]; !isLink {
		return
	}
	if up {
		if !n.downLinks[key] {
			return
		}
		delete(n.downLinks, key)
	} else {
		if n.downLinks[key] {
			return
		}
		if n.downLinks == nil {
			n.downLinks = make(map[[2]int]bool)
		}
		n.downLinks[key] = true
	}
	n.recomputeRoutes()
	if !up {
		n.drainPort(a, b)
		n.drainPort(b, a)
	}
}

// linkDown reports whether the link between adjacent local nodes is down.
func (n *Network) linkDown(a, b int) bool {
	if len(n.downLinks) == 0 {
		return false
	}
	if b < a {
		a, b = b, a
	}
	return n.downLinks[[2]int{a, b}]
}

// recomputeRoutes rebuilds the detour table after a link state change: a BFS
// from every destination over the up links, with next hops chosen in
// ascending-neighbor order so routing stays deterministic. Unreachable pairs
// get next hop -1. With no links down the table is dropped and the static
// graph routes (the fault-free fast path) apply.
func (n *Network) recomputeRoutes() {
	if len(n.downLinks) == 0 {
		n.reroute = nil
		return
	}
	size := len(n.nodes)
	n.reroute = make([][]int, size)
	for d := 0; d < size; d++ {
		dist := make([]int, size)
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue := []int{d}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, nb := range n.graph.Neighbors(v) {
				if dist[nb] >= 0 || n.linkDown(v, nb) {
					continue
				}
				dist[nb] = dist[v] + 1
				queue = append(queue, nb)
			}
		}
		next := make([]int, size)
		for s := 0; s < size; s++ {
			next[s] = -1
			if s == d {
				next[s] = s
				continue
			}
			if dist[s] < 0 {
				continue
			}
			for _, nb := range n.graph.Neighbors(s) {
				if !n.linkDown(s, nb) && dist[nb] == dist[s]-1 {
					next[s] = nb
					break
				}
			}
		}
		n.reroute[d] = next
	}
}

// nextHopLocal picks the next hop from s toward d under the current link
// state; -1 means d is unreachable from s.
func (n *Network) nextHopLocal(s, d int) int {
	if n.reroute == nil {
		return n.graph.NextHop(s, d)
	}
	return n.reroute[d][s]
}

// drainPort re-routes every message queued on local's port toward nb. Called
// when the link goes down; enqueue consults the fresh detour table, so each
// message either takes another port or is dropped as unroutable.
func (n *Network) drainPort(local, nb int) {
	port := n.graph.Port(local, nb)
	if port < 0 {
		return
	}
	q := n.routers[local].ports[port]
	msgs := q.queue
	q.queue = fifo.Ring[*Message]{}
	for msgs.Len() > 0 {
		n.routers[local].enqueue(msgs.Pop())
	}
}

// dropAt loses a message that currently holds a buffer on the given local
// node (downed link, injected drop, or no surviving route).
func (n *Network) dropAt(local int, m *Message) {
	n.stats.Drops++
	n.NodeOf(local).Mem.FreeBytes(n.wireBytes(m))
}

// retryState tracks one reliable message awaiting delivery. attempt counts
// transmissions so far; timers carry the attempt they were armed for, so a
// stale timer (the message was since delivered or retransmitted) is ignored.
type retryState struct {
	m       *Message
	attempt int
}

// registerReliable assigns the message its uid and arms the first delivery
// timeout. Called from Send before the message enters the mailbox system.
func (n *Network) registerReliable(m *Message) {
	n.nextUID++
	m.uid = n.nextUID
	n.pending[m.uid] = &retryState{m: m, attempt: 1}
	n.armRetry(m.uid, 1)
}

// armRetry schedules the delivery timeout for the given transmission
// attempt, with exponential backoff over attempts.
func (n *Network) armRetry(uid int64, attempt int) {
	backoff := n.retryTimeout
	for i := 1; i < attempt && backoff < sim.Time(1)<<40; i++ {
		backoff *= 2
	}
	n.k.AfterFunc(backoff, func() { n.retryFire(uid, attempt) })
}

// retryFire handles a delivery timeout: retransmit if budget remains, else
// declare delivery failure.
func (n *Network) retryFire(uid int64, attempt int) {
	st, outstanding := n.pending[uid]
	if !outstanding || st.attempt != attempt {
		return // delivered, failed, or superseded in the meantime
	}
	if st.attempt > n.retryCap {
		delete(n.pending, uid)
		n.stats.DeliveryFailures++
		if n.onFailure != nil {
			n.onFailure(st.m)
		}
		return
	}
	st.attempt++
	n.stats.Retries++
	n.retransmit(st.m)
	n.armRetry(uid, st.attempt)
}

// retxName and retxTaskName lazily name a retransmission's process and
// its source task.
type (
	retxName     Message
	retxTaskName Message
)

func (m *retxName) String() string     { return fmt.Sprintf("retx u%d", m.uid) }
func (m *retxTaskName) String() string { return fmt.Sprintf("retx n%d", m.Src.Node) }

// retransmit injects a fresh copy of the message at its source node. The
// copy keeps the original SentAt (end-to-end latency includes recovery) and
// uid (so whichever copy arrives first wins and the rest are suppressed).
// The resend charges the source CPU at high priority, like router work.
func (n *Network) retransmit(orig *Message) {
	clone := &Message{
		Src:     orig.Src,
		Dst:     orig.Dst,
		Bytes:   orig.Bytes,
		Tag:     orig.Tag,
		Payload: orig.Payload,
		SentAt:  orig.SentAt,
		uid:     orig.uid,
	}
	src := clone.Src.Node
	n.k.SpawnNamed((*retxName)(clone), func(p *sim.Proc) {
		task := n.NodeOf(src).CPU.NewTaskNamed((*retxTaskName)(clone), machine.PriHigh)
		task.Compute(p, n.cost.SendOverhead)
		n.NodeOf(src).Mem.Alloc(p, n.wireBytes(clone), mem.ClassBuffer)
		n.routers[src].enqueue(clone)
	})
}
