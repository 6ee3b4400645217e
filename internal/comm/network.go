package comm

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Stats aggregates network-level counters for one partition network.
type Stats struct {
	// MessagesSent / MessagesDelivered count end-to-end messages.
	MessagesSent, MessagesDelivered int64
	// PayloadBytes is the total payload injected (headers excluded).
	PayloadBytes int64
	// Hops counts link traversals (0 for self-sends).
	Hops int64
	// TotalLatency accumulates send-to-delivery times for delivered
	// messages.
	TotalLatency sim.Time
	// Robustness counters, all zero on a fault-free run. Drops counts
	// messages lost to downed links, injected drops, or unroutable
	// destinations; Retries counts retransmissions; Duplicates counts
	// suppressed second deliveries of retried messages; DeadLetters counts
	// deliveries to retired mailboxes; DeliveryFailures counts messages
	// abandoned after the retry budget was exhausted.
	Drops, Retries, Duplicates, DeadLetters, DeliveryFailures int64
}

// Add merges o into s with saturating arithmetic, so aggregating counters
// across many partitions and long fault runs can never silently wrap.
func (s *Stats) Add(o Stats) {
	s.MessagesSent = metrics.SatAdd64(s.MessagesSent, o.MessagesSent)
	s.MessagesDelivered = metrics.SatAdd64(s.MessagesDelivered, o.MessagesDelivered)
	s.PayloadBytes = metrics.SatAdd64(s.PayloadBytes, o.PayloadBytes)
	s.Hops = metrics.SatAdd64(s.Hops, o.Hops)
	s.TotalLatency = metrics.SatAddTime(s.TotalLatency, o.TotalLatency)
	s.Drops = metrics.SatAdd64(s.Drops, o.Drops)
	s.Retries = metrics.SatAdd64(s.Retries, o.Retries)
	s.Duplicates = metrics.SatAdd64(s.Duplicates, o.Duplicates)
	s.DeadLetters = metrics.SatAdd64(s.DeadLetters, o.DeadLetters)
	s.DeliveryFailures = metrics.SatAdd64(s.DeliveryFailures, o.DeliveryFailures)
}

// Network is the mailbox communication system over one partition: the subset
// of machine nodes assigned to the partition, wired in a topology, with
// store-and-forward router daemons (or wormhole worms) moving messages.
type Network struct {
	mach  *machine.Machine
	k     *sim.Kernel
	cost  machine.CostModel
	mode  Mode
	nodes []int // global node id per local index
	graph *topology.Graph

	links   map[[2]int]*machine.Link // key: local ids, lower first
	routers []*router                // per local node
	boxes   map[Addr]*Mailbox
	nextBox []int
	localOf map[int]int // global node id -> local index

	// portTo is the precomputed fault-free forwarding table:
	// portTo[src][dst] is the output port of the deterministic static route
	// (-1 on the diagonal). Built once at NewNetwork, it makes the hot
	// routing decision a single indexed load; the BFS detour table below is
	// consulted only while links are down.
	portTo [][]int8

	// Robustness state (see robust.go). downLinks keys are local pairs,
	// lower first; reroute is the BFS detour table, nil while all links are
	// up (the fault-free fast path uses the static graph routes).
	downLinks map[[2]int]bool
	reroute   [][]int
	dropFn    func() bool
	onFailure func(*Message)

	// Reliable-delivery state: per-message retry timers keyed by uid.
	retryTimeout sim.Time
	retryCap     int
	nextUID      int64
	pending      map[int64]*retryState

	tracer trace.Tracer
	stats  Stats
}

// NewNetwork wires the given global machine nodes (in partition-local order)
// with the topology graph (which must have len(nodeIDs) nodes) and starts
// the router daemons. Each network is independent: partitions do not share
// links, matching the paper's per-partition switch configuration.
func NewNetwork(mach *machine.Machine, nodeIDs []int, g *topology.Graph, mode Mode) (*Network, error) {
	if g.N != len(nodeIDs) {
		return nil, fmt.Errorf("comm: graph size %d != node count %d", g.N, len(nodeIDs))
	}
	n := &Network{
		mach:    mach,
		k:       mach.K,
		cost:    mach.Cost,
		mode:    mode,
		nodes:   append([]int(nil), nodeIDs...),
		graph:   g,
		links:   make(map[[2]int]*machine.Link),
		boxes:   make(map[Addr]*Mailbox),
		nextBox: make([]int, len(nodeIDs)),
		localOf: make(map[int]int, len(nodeIDs)),
	}
	for i, id := range nodeIDs {
		if _, dup := n.localOf[id]; dup {
			return nil, fmt.Errorf("comm: node %d appears twice in the partition", id)
		}
		n.localOf[id] = i
	}
	for a := 0; a < g.N; a++ {
		for _, b := range g.Neighbors(a) {
			if b > a {
				n.links[[2]int{a, b}] = machine.NewLink(n.k, nodeIDs[a], nodeIDs[b])
			}
		}
	}
	n.portTo = make([][]int8, g.N)
	for s := 0; s < g.N; s++ {
		row := make([]int8, g.N)
		for d := 0; d < g.N; d++ {
			if d == s {
				row[d] = -1
				continue
			}
			row[d] = int8(g.Port(s, g.NextHop(s, d)))
		}
		n.portTo[s] = row
	}
	n.routers = make([]*router, g.N)
	for i := range n.routers {
		n.routers[i] = newRouter(n, i)
	}
	return n, nil
}

// MustNewNetwork is NewNetwork but panics on error, for call sites whose
// inputs were already validated (an error there is an internal invariant
// violation, not bad configuration).
func MustNewNetwork(mach *machine.Machine, nodeIDs []int, g *topology.Graph, mode Mode) *Network {
	n, err := NewNetwork(mach, nodeIDs, g, mode)
	if err != nil {
		panic(err)
	}
	return n
}

// SetTracer installs an optional event tracer (nil disables tracing).
func (n *Network) SetTracer(tr trace.Tracer) { n.tracer = tr }

// Mode returns the switching mode.
func (n *Network) Mode() Mode { return n.mode }

// Graph returns the partition topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Size returns the number of nodes in the partition.
func (n *Network) Size() int { return len(n.nodes) }

// GlobalNode maps a partition-local index to the machine node id.
func (n *Network) GlobalNode(local int) int { return n.nodes[local] }

// NodeOf returns the machine node backing a local index.
func (n *Network) NodeOf(local int) *machine.Node { return n.mach.Node(n.nodes[local]) }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// LinkStats aggregates the physical-link counters over the partition:
// total and maximum per-direction busy time, queue wait, transfers and
// bytes carried.
func (n *Network) LinkStats() (total, max machine.LinkStats) {
	for _, l := range n.links {
		for _, h := range []*machine.HalfLink{l.AtoB, l.BtoA} {
			st := h.Stats()
			total.BusyTime += st.BusyTime
			total.WaitTime += st.WaitTime
			total.Transfers += st.Transfers
			total.Bytes += st.Bytes
			if st.BusyTime > max.BusyTime {
				max = st
			}
		}
	}
	return total, max
}

// link returns the half-link carrying traffic from local node a to adjacent
// local node b.
func (n *Network) link(a, b int) *machine.HalfLink {
	key := [2]int{a, b}
	if b < a {
		key = [2]int{b, a}
	}
	l, ok := n.links[key]
	if !ok {
		panic(fmt.Sprintf("comm: no link between local nodes %d and %d", a, b))
	}
	return l.Dir(n.nodes[a])
}

// NewMailbox registers a mailbox on the given local node and returns it.
func (n *Network) NewMailbox(local int) *Mailbox {
	if local < 0 || local >= len(n.nodes) {
		panic(fmt.Sprintf("comm: mailbox on node %d of %d", local, len(n.nodes)))
	}
	addr := Addr{Node: local, Box: n.nextBox[local]}
	n.nextBox[local]++
	b := &Mailbox{addr: addr}
	n.boxes[addr] = b
	return b
}

func (n *Network) mailbox(a Addr) *Mailbox {
	b, ok := n.boxes[a]
	if !ok {
		panic(fmt.Sprintf("comm: send to unknown mailbox %v", a))
	}
	return b
}

// wireBytes is the buffer/wire footprint of a message.
func (n *Network) wireBytes(m *Message) int64 {
	return m.Bytes + n.cost.MsgHeaderBytes
}

// Send injects a message asynchronously. The calling process pays the send
// overhead on its CPU task, then blocks only as long as the source node's
// MMU makes it wait for the first buffer; the message then travels on its
// own. Self-sends (src node == dst node) still traverse the mailbox router,
// as on the real system.
func (n *Network) Send(p *sim.Proc, task *machine.Task, m *Message) {
	if _, ok := n.boxes[m.Dst]; !ok {
		panic(fmt.Sprintf("comm: send to unknown mailbox %v", m.Dst))
	}
	if m.Bytes < 0 {
		panic("comm: negative message size")
	}
	task.Compute(p, n.cost.SendOverhead)
	m.SentAt = n.k.Now()
	n.stats.MessagesSent++
	n.stats.PayloadBytes += m.Bytes
	if n.tracer != nil {
		trace.Emit(n.tracer, n.k.Now(), "msg", fmt.Sprintf("%s->%s", m.Src, m.Dst),
			fmt.Sprintf("send %q %dB", m.Tag, m.Bytes))
	}
	switch n.mode {
	case StoreForward:
		if n.retryTimeout > 0 {
			n.registerReliable(m)
		}
		// Reserve the source-node buffer, then hand off to the router.
		n.NodeOf(m.Src.Node).Mem.Alloc(p, n.wireBytes(m), mem.ClassBuffer)
		n.routers[m.Src.Node].enqueue(m)
	case Wormhole:
		n.sendWormhole(p, m)
	default:
		panic("comm: unknown mode")
	}
}

// Recv blocks until a message arrives in box, charges the receive overhead,
// and returns the message. The message's buffer remains allocated on the
// receiving node until Release is called — received data the application
// keeps is exactly memory it occupies.
func (n *Network) Recv(p *sim.Proc, task *machine.Task, box *Mailbox) *Message {
	m := box.take(p)
	task.Compute(p, n.cost.RecvOverhead)
	return m
}

// TryRecv returns the next queued message without blocking, or nil. The
// receive overhead is charged only when a message is returned.
func (n *Network) TryRecv(p *sim.Proc, task *machine.Task, box *Mailbox) *Message {
	if box.Len() == 0 {
		return nil
	}
	m := box.take(p)
	task.Compute(p, n.cost.RecvOverhead)
	return m
}

// Release frees the node memory held by a delivered message. Releasing twice
// panics: that is a double-free in the workload.
func (n *Network) Release(m *Message) {
	if m.released {
		panic(fmt.Sprintf("comm: double release of message %s->%s %q", m.Src, m.Dst, m.Tag))
	}
	m.released = true
	n.NodeOf(m.Dst.Node).Mem.FreeBytes(n.wireBytes(m))
}

// deliver hands a message to its destination mailbox. The buffer stays
// charged to the destination node until Release. Under reliable delivery a
// copy arriving after its uid was already delivered (a retransmission racing
// the original) or after its retry budget was declared exhausted is
// suppressed; a copy for a retired mailbox is dead-lettered. Both free the
// buffer and settle the retry state.
func (n *Network) deliver(m *Message) {
	if m.uid != 0 {
		if _, outstanding := n.pending[m.uid]; !outstanding {
			n.stats.Duplicates++
			n.discard(m)
			return
		}
	}
	box := n.mailbox(m.Dst)
	if box.retired {
		if m.uid != 0 {
			delete(n.pending, m.uid)
		}
		n.stats.DeadLetters++
		n.discard(m)
		return
	}
	if m.uid != 0 {
		delete(n.pending, m.uid)
	}
	m.DeliveredAt = n.k.Now()
	n.stats.MessagesDelivered++
	n.stats.TotalLatency += m.DeliveredAt - m.SentAt
	if n.tracer != nil {
		trace.Emit(n.tracer, n.k.Now(), "msg", fmt.Sprintf("%s->%s", m.Src, m.Dst),
			fmt.Sprintf("deliver %q after %d hops, %s", m.Tag, m.HopsTaken, m.DeliveredAt-m.SentAt))
	}
	box.deliver(m)
}

// discard frees the node buffer of a message that reached its destination
// node but will not be handed to an application mailbox.
func (n *Network) discard(m *Message) {
	m.released = true
	n.NodeOf(m.Dst.Node).Mem.FreeBytes(n.wireBytes(m))
}

// RetireMailbox takes a mailbox permanently out of service: queued messages
// are discarded and their buffers freed, and future deliveries dead-letter.
// The scheduler retires a killed job's mailboxes so in-flight traffic of a
// dead job cannot leak buffer memory or wake anyone.
func (n *Network) RetireMailbox(b *Mailbox) {
	if b.retired {
		return
	}
	b.retired = true
	for b.queue.Len() > 0 {
		if m := b.queue.Pop(); !m.released {
			n.discard(m)
		}
	}
}

// FreeMailbox retires a mailbox and removes it from the network entirely,
// so a long-running partition's mailbox table stays bounded by the jobs in
// flight rather than growing with every job ever run. Only for cleanly
// completed jobs — a killed job's mailboxes must stay registered (retired)
// so its in-flight traffic dead-letters instead of faulting the router.
func (n *Network) FreeMailbox(b *Mailbox) {
	n.RetireMailbox(b)
	delete(n.boxes, b.addr)
}

// Links returns the partition's physical links as global endpoint pairs
// (lower id first), sorted — the deterministic link list a fault injector
// plans over.
func (n *Network) Links() [][2]int {
	out := make([][2]int, 0, len(n.links))
	for key := range n.links {
		ga, gb := n.nodes[key[0]], n.nodes[key[1]]
		if ga > gb {
			ga, gb = gb, ga
		}
		out = append(out, [2]int{ga, gb})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
