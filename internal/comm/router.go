package comm

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// router is the store-and-forward mailbox software of one node. It mirrors
// the structure of the paper's system: the T805's four link DMA engines can
// move data in parallel, so there is one forwarding daemon per output port
// (plus one local-delivery daemon), but all of them charge their per-message
// processing to the node CPU at high priority, where they contend with each
// other and preempt application work.
type router struct {
	net   *Network
	local int

	deliveryQ *msgQueue
	portQ     []*msgQueue // indexed by port (ascending-neighbor order)
}

// msgQueue is a FIFO with a single daemon consumer.
type msgQueue struct {
	queue  []*Message
	daemon *sim.Proc
}

func (q *msgQueue) push(m *Message) {
	q.queue = append(q.queue, m)
	q.daemon.Wake()
}

func (q *msgQueue) pop(p *sim.Proc, what string) *Message {
	for len(q.queue) == 0 {
		p.Park(what)
	}
	m := q.queue[0]
	q.queue = slices.Delete(q.queue, 0, 1) // in place: keeps the capacity
	return m
}

// The router daemons' idle park reasons. The daemons are spawned parked
// with them, so a router that never carries a message runs no coroutine.
const (
	deliveryIdle = "router delivery idle"
	portIdle     = "router port idle"
)

func newRouter(n *Network, local int) *router {
	r := &router{net: n, local: local}
	node := n.NodeOf(local)

	r.deliveryQ = &msgQueue{}
	dTask := node.CPU.NewTask(fmt.Sprintf("router%d.deliver", local), machine.PriHigh)
	r.deliveryQ.daemon = n.k.SpawnParked(fmt.Sprintf("router%d.deliver", local), deliveryIdle, func(p *sim.Proc) {
		for {
			m := r.deliveryQ.pop(p, deliveryIdle)
			dTask.Compute(p, n.cost.RouterHopOverhead)
			n.deliver(m)
		}
	})

	neighbors := n.graph.Neighbors(local)
	r.portQ = make([]*msgQueue, len(neighbors))
	for port, nb := range neighbors {
		port, nb := port, nb
		q := &msgQueue{}
		r.portQ[port] = q
		task := node.CPU.NewTask(fmt.Sprintf("router%d.port%d", local, port), machine.PriHigh)
		q.daemon = n.k.SpawnParked(fmt.Sprintf("router%d.port%d", local, port), portIdle, func(p *sim.Proc) {
			r.forwardLoop(p, task, q, nb)
		})
	}
	return r
}

// enqueue routes a message (which holds a buffer on this node) to the
// delivery queue or the port queue for its next hop under the current link
// state. A message whose destination is unreachable (link failures cut the
// partition) is dropped here; reliable senders recover via retry, and the
// retry budget converts a persistent cut into a delivery-failure signal.
func (r *router) enqueue(m *Message) {
	if m.Dst.Node == r.local {
		r.deliveryQ.push(m)
		return
	}
	if r.net.reroute == nil {
		// Fault-free fast path: the static route's output port is one
		// precomputed table load, no next-hop or port scan.
		r.portQ[r.net.portTo[r.local][m.Dst.Node]].push(m)
		return
	}
	next := r.net.nextHopLocal(r.local, m.Dst.Node)
	if next < 0 {
		r.net.dropAt(r.local, m)
		return
	}
	port := r.net.graph.Port(r.local, next)
	if port < 0 {
		panic(fmt.Sprintf("comm: node %d has no port toward %d", r.local, next))
	}
	r.portQ[port].push(m)
}

// forwardLoop is one output port's store-and-forward pipeline: header
// processing on the CPU, buffer reservation at the next node (this is where
// memory contention delays messages), link serialization, then hand-off.
func (r *router) forwardLoop(p *sim.Proc, task *machine.Task, q *msgQueue, nb int) {
	n := r.net
	// The physical link set is fixed for the network's lifetime (only the
	// up/down state changes), so resolve this port's half-link once instead
	// of a map lookup per message.
	half := n.link(r.local, nb)
	nbMem := n.NodeOf(nb).Mem
	for {
		m := q.pop(p, portIdle)
		task.Compute(p, n.cost.RouterHopOverhead)
		// The link may have failed while the message was queued (or while
		// this daemon was busy); hand it back to routing for a detour.
		if n.linkDown(r.local, nb) {
			r.enqueue(m)
			continue
		}
		wire := n.wireBytes(m)
		// Store-and-forward: the next node must hold the whole message.
		nbMem.Alloc(p, wire, mem.ClassBuffer)
		half.Acquire(p)
		if n.linkDown(r.local, nb) {
			// Failed while we waited for the channel: give everything back
			// and re-route.
			half.Release()
			nbMem.FreeBytes(wire)
			r.enqueue(m)
			continue
		}
		p.Sleep(n.cost.TransferTime(wire)) // DMA: link busy, CPU free
		half.CountTransfer(wire)
		half.Release()
		n.NodeOf(r.local).Mem.FreeBytes(wire)
		// A link failure during the transfer, or an injected drop, loses the
		// message on the wire.
		if n.linkDown(r.local, nb) || (n.dropFn != nil && n.dropFn()) {
			n.stats.Drops++
			nbMem.FreeBytes(wire)
			continue
		}
		m.HopsTaken++
		n.stats.Hops++
		n.routers[nb].enqueue(m)
	}
}

// sendWormhole implements the ablation switching mode: the message becomes a
// "worm" that reserves the whole channel path, keeps only flit-sized state
// per hop, and pipelines its bytes end to end. Router CPU is charged only at
// the endpoints (hardware routing in between).
func (n *Network) sendWormhole(p *sim.Proc, m *Message) {
	src, dst := m.Src.Node, m.Dst.Node
	wire := n.wireBytes(m)
	// Flit-sized channel state at the source while the worm exists.
	flit := n.cost.FlitBytes
	n.NodeOf(src).Mem.Alloc(p, flit, mem.ClassBuffer)
	n.k.Spawn(fmt.Sprintf("worm %s->%s", m.Src, m.Dst), func(wp *sim.Proc) {
		srcTask := n.NodeOf(src).CPU.NewTask("worm.src", machine.PriHigh)
		srcTask.Compute(wp, n.cost.RouterHopOverhead)
		// The destination stores the full message; reserve it before taking
		// any channel so a memory wait never stalls the network.
		n.NodeOf(dst).Mem.Alloc(wp, wire, mem.ClassBuffer)
		path := n.graph.Path(src, dst)
		// Reserve the channel path in order (deterministic; dimension-ordered
		// routes keep this deadlock-free on mesh and hypercube).
		var held []*machine.HalfLink
		for i := 0; i+1 < len(path); i++ {
			h := n.link(path[i], path[i+1])
			h.Acquire(wp)
			held = append(held, h)
		}
		hops := len(path) - 1
		if hops > 0 {
			// Pipelined: one serialization plus per-hop latency.
			wp.Sleep(sim.Time(hops)*n.cost.LinkLatency + n.cost.TransferTime(wire) - n.cost.LinkLatency)
		}
		for i := len(held) - 1; i >= 0; i-- {
			held[i].CountTransfer(wire)
			held[i].Release()
		}
		m.HopsTaken += hops
		n.stats.Hops += int64(hops)
		n.NodeOf(src).Mem.FreeBytes(flit)
		dstTask := n.NodeOf(dst).CPU.NewTask("worm.dst", machine.PriHigh)
		dstTask.Compute(wp, n.cost.RouterHopOverhead)
		n.deliver(m)
	})
}
