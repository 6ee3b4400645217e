package comm

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// router is the store-and-forward mailbox software of one node. It mirrors
// the structure of the paper's system: the T805's four link DMA engines can
// move data in parallel, so there is one forwarding daemon per output port
// (plus one local-delivery daemon), but all of them charge their per-message
// processing to the node CPU at high priority, where they contend with each
// other and preempt application work. The daemons are steppers (see
// sim.SpawnStepper): state machines driven by their wake events, so a hop
// costs no coroutine switch.
type router struct {
	net   *Network
	local int

	delivery *deliverer
	ports    []*forwarder // indexed by port (ascending-neighbor order)
}

// msgQueue is a FIFO with a single daemon consumer.
type msgQueue struct {
	queue  fifo.Ring[*Message]
	daemon *sim.Proc
}

func (q *msgQueue) push(m *Message) {
	q.queue.Push(m)
	q.daemon.Wake()
}

// take removes and returns the head message. On an empty queue the daemon
// waits with reason idle, and take returns nil once it parked.
func (q *msgQueue) take(p *sim.Proc, idle fmt.Stringer) *Message {
	for q.queue.Len() == 0 {
		if p.Wait(idle) {
			return nil
		}
	}
	return q.queue.Pop()
}

// idleWhy is a router daemon's constant idle park reason.
type idleWhy string

func (w idleWhy) String() string { return string(w) }

const (
	deliveryIdle idleWhy = "router delivery idle"
	portIdle     idleWhy = "router port idle"
)

func newRouter(n *Network, local int) *router {
	r := &router{net: n, local: local}
	cpu := n.NodeOf(local).CPU

	d := &deliverer{r: r}
	d.task = cpu.NewTaskNamed(d, machine.PriHigh)
	d.daemon = n.k.SpawnStepper(d, d.step)
	r.delivery = d

	neighbors := n.graph.Neighbors(local)
	r.ports = make([]*forwarder, len(neighbors))
	for port, nb := range neighbors {
		f := &forwarder{
			r:     r,
			port:  port,
			nb:    nb,
			half:  n.link(local, nb),
			nbMem: n.NodeOf(nb).Mem,
		}
		f.task = cpu.NewTaskNamed(f, machine.PriHigh)
		f.daemon = n.k.SpawnStepper(f, f.step)
		r.ports[port] = f
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
		r.delivery.push(m)
		return
	}
	if r.net.reroute == nil {
		// Fault-free fast path: the static route's output port is one
		// precomputed table load, no next-hop or port scan.
		r.ports[r.net.portTo[r.local][m.Dst.Node]].push(m)
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
	r.ports[port].push(m)
}

// deliverer is a node's local-delivery daemon: header processing on the
// CPU, then hand-off to the destination mailbox. It has two states: idle
// (m is nil) and computing m's header.
type deliverer struct {
	msgQueue
	r    *router
	task *machine.Task
	m    *Message
}

// String is the daemon's process and task name.
func (d *deliverer) String() string { return fmt.Sprintf("router%d.deliver", d.r.local) }

func (d *deliverer) step(p *sim.Proc) {
	for {
		if d.m == nil {
			if d.m = d.take(p, deliveryIdle); d.m == nil {
				return
			}
			d.task.StartBurst(p, d.r.net.cost.RouterHopOverhead)
		}
		if d.task.AwaitBurst(p) {
			return
		}
		m := d.m
		d.m = nil
		d.r.net.deliver(m)
	}
}

// fwdState is where a forwarder stands in its pipeline: the wait it is in.
type fwdState uint8

const (
	fwdIdle    fwdState = iota // no message: waiting for one
	fwdCompute                 // header processing on the CPU
	fwdAlloc                   // waiting for a buffer at the next node
	fwdAcquire                 // waiting for the link direction
	fwdSleep                   // DMA: link busy, CPU free
)

// forwarder is one output port's store-and-forward pipeline: header
// processing on the CPU, buffer reservation at the next node (this is where
// memory contention delays messages), link serialization, then hand-off.
type forwarder struct {
	msgQueue
	r    *router
	port int
	nb   int // the neighbor this port leads to
	task *machine.Task
	// The physical link set is fixed for the network's lifetime (only the
	// up/down state changes), so the port's half-link and the next node's
	// memory are resolved once.
	half  *machine.HalfLink
	nbMem *mem.MMU

	state fwdState
	m     *Message // the message in the pipeline; nil while idle
	wire  int64
	memW  mem.Waiter // the buffer request at the next node
	linkW machine.LinkWaiter
}

// String is the daemon's process and task name.
func (f *forwarder) String() string { return fmt.Sprintf("router%d.port%d", f.r.local, f.port) }

// step runs the pipeline from the wait it is in until it waits again.
func (f *forwarder) step(p *sim.Proc) {
	n := f.r.net
	for {
		switch f.state {
		case fwdIdle:
			if f.m = f.take(p, portIdle); f.m == nil {
				return
			}
			f.task.StartBurst(p, n.cost.RouterHopOverhead)
			f.state = fwdCompute
			fallthrough
		case fwdCompute:
			if f.task.AwaitBurst(p) {
				return
			}
			// The link may have failed while the message was queued (or
			// while this daemon was busy); hand it back to routing for a
			// detour.
			if n.linkDown(f.r.local, f.nb) {
				f.reroute()
				continue
			}
			f.wire = n.wireBytes(f.m)
			// Store-and-forward: the next node must hold the whole message.
			f.nbMem.Request(p, f.wire, mem.ClassBuffer, &f.memW)
			f.state = fwdAlloc
			fallthrough
		case fwdAlloc:
			if f.nbMem.Await(p, &f.memW) {
				return
			}
			f.half.Request(p, &f.linkW)
			f.state = fwdAcquire
			fallthrough
		case fwdAcquire:
			if f.half.Await(p, &f.linkW) {
				return
			}
			if n.linkDown(f.r.local, f.nb) {
				// Failed while we waited for the channel: give everything
				// back and re-route.
				f.half.Release()
				f.nbMem.FreeBytes(f.wire)
				f.reroute()
				continue
			}
			p.StartSleep(n.cost.TransferTime(f.wire)) // DMA: link busy, CPU free
			f.state = fwdSleep
			fallthrough
		case fwdSleep:
			if p.AwaitSleep() {
				return
			}
			m := f.m
			f.m, f.state = nil, fwdIdle
			f.half.CountTransfer(f.wire)
			f.half.Release()
			n.NodeOf(f.r.local).Mem.FreeBytes(f.wire)
			// A link failure during the transfer, or an injected drop,
			// loses the message on the wire.
			if n.linkDown(f.r.local, f.nb) || (n.dropFn != nil && n.dropFn()) {
				n.stats.Drops++
				f.nbMem.FreeBytes(f.wire)
				continue
			}
			m.HopsTaken++
			n.stats.Hops++
			n.routers[f.nb].enqueue(m)
		}
	}
}

// reroute hands the message back to this node's routing and goes idle.
func (f *forwarder) reroute() {
	m := f.m
	f.m, f.state = nil, fwdIdle
	f.r.enqueue(m)
}

// wormName lazily names a wormhole message's process.
type wormName Message

func (m *wormName) String() string { return fmt.Sprintf("worm %s->%s", m.Src, m.Dst) }

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
	n.k.SpawnNamed((*wormName)(m), func(wp *sim.Proc) {
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
