package comm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testCost gives round numbers for exact latency arithmetic in tests.
func testCost() machine.CostModel {
	return machine.CostModel{
		Quantum:           2000,
		LinkPerByteNS:     1000, // 1 µs/byte
		LinkLatency:       2,
		RouterHopOverhead: 20,
		SendOverhead:      10,
		RecvOverhead:      5,
		JobSwitch:         100,
		SpawnOverhead:     50,
		FlitBytes:         8,
		MsgHeaderBytes:    0,
	}
}

// rig builds a machine + network over n nodes with the given topology.
func rig(t *testing.T, kind topology.Kind, n int, mode Mode, memBytes int64) (*sim.Kernel, *machine.Machine, *Network) {
	t.Helper()
	k := sim.NewKernel(1)
	mach := machine.NewMachine(k, n, memBytes, testCost())
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	net := MustNewNetwork(mach, ids, topology.MustBuild(kind, n), mode)
	t.Cleanup(func() { k.Shutdown() })
	return k, mach, net
}

func TestModeParsing(t *testing.T) {
	for s, want := range map[string]Mode{"saf": StoreForward, "sf": StoreForward, "store-and-forward": StoreForward, "wormhole": Wormhole, "wh": Wormhole} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("telepathy"); err == nil {
		t.Error("bad mode should fail")
	}
	if StoreForward.String() != "store-and-forward" || Wormhole.String() != "wormhole" {
		t.Error("mode strings")
	}
}

func TestAddrString(t *testing.T) {
	if s := (Addr{Node: 3, Box: 1}).String(); s != "n3.b1" {
		t.Errorf("addr = %q", s)
	}
}

func TestAdjacentSendLatency(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	sender := net.NewMailbox(0)
	receiver := net.NewMailbox(1)
	var delivered, recvDone sim.Time
	var gotHops int
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(1).CPU.NewTask("recv", machine.PriLow)
		m := net.Recv(p, task, receiver)
		delivered = m.DeliveredAt
		recvDone = p.Now()
		gotHops = m.HopsTaken
		net.Release(m)
	})
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		net.Send(p, task, &Message{Src: sender.Addr(), Dst: receiver.Addr(), Bytes: 100, Tag: "t"})
	})
	k.Run()
	// send overhead 10 + hop cpu 20 + transfer (2+100) + delivery cpu 20.
	if delivered != 152 {
		t.Errorf("delivered at %v, want 152", delivered)
	}
	if recvDone != 157 { // + recv overhead 5
		t.Errorf("recv done at %v, want 157", recvDone)
	}
	if gotHops != 1 {
		t.Errorf("hops = %d, want 1", gotHops)
	}
	st := net.Stats()
	if st.MessagesSent != 1 || st.MessagesDelivered != 1 || st.Hops != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalLatency != 142 { // 152 - sentAt(10)
		t.Errorf("latency = %v, want 142", st.TotalLatency)
	}
}

func TestSelfSendGoesThroughRouter(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 1, StoreForward, 1<<20)
	me := net.NewMailbox(0)
	var done sim.Time
	k.Spawn("self", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("self", machine.PriLow)
		net.Send(p, task, &Message{Src: me.Addr(), Dst: me.Addr(), Bytes: 50})
		m := net.Recv(p, task, me)
		done = p.Now()
		if m.HopsTaken != 0 {
			t.Errorf("self-send hops = %d", m.HopsTaken)
		}
		net.Release(m)
	})
	k.Run()
	// send 10 + delivery hop cpu 20 + recv 5 = 35. (Self-sends pay the
	// mailbox machinery, as the paper notes for the fixed architecture.)
	if done != 35 {
		t.Errorf("self send round trip = %v, want 35", done)
	}
}

func TestMultiHopAndOrderPreserved(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 4, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(3)
	var tags []string
	var hops []int
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(3).CPU.NewTask("recv", machine.PriLow)
		for i := 0; i < 3; i++ {
			m := net.Recv(p, task, dst)
			tags = append(tags, m.Tag)
			hops = append(hops, m.HopsTaken)
			net.Release(m)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		for _, tag := range []string{"one", "two", "three"} {
			net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 10, Tag: tag})
		}
	})
	k.Run()
	if len(tags) != 3 || tags[0] != "one" || tags[1] != "two" || tags[2] != "three" {
		t.Fatalf("tags = %v", tags)
	}
	for _, h := range hops {
		if h != 3 {
			t.Errorf("hops = %v, want all 3", hops)
		}
	}
}

func TestStoreForwardBufferBlockingDelaysMessage(t *testing.T) {
	k, mach, net := rig(t, topology.Linear, 2, StoreForward, 200)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	// Node 1 has 200 bytes; hog 150 so the 100-byte message must wait.
	if !mach.Node(1).Mem.TryAlloc(150, mem.ClassData) {
		t.Fatal("setup alloc failed")
	}
	var delivered sim.Time
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(1).CPU.NewTask("recv", machine.PriLow)
		m := net.Recv(p, task, dst)
		delivered = m.DeliveredAt
		net.Release(m)
	})
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 100})
	})
	k.AfterFunc(5000, func() { mach.Node(1).Mem.FreeBytes(150) })
	k.Run()
	// Without blocking it would deliver at 152; the buffer only frees at
	// 5000, then transfer 102 + delivery 20.
	if delivered != 5122 {
		t.Errorf("delivered at %v, want 5122", delivered)
	}
	if mach.Node(1).Mem.Stats().BlockedAllocs == 0 {
		t.Error("expected a blocked allocation at node 1")
	}
}

func TestRouterStealsCyclesFromLowPriorityApp(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 3, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(2)
	var appDone sim.Time
	// Application crunching on the intermediate node 1.
	appTask := net.NodeOf(1).CPU.NewTask("app", machine.PriLow)
	k.Spawn("app", func(p *sim.Proc) {
		appTask.Compute(p, 1000)
		appDone = p.Now()
	})
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(2).CPU.NewTask("recv", machine.PriLow)
		m := net.Recv(p, task, dst)
		net.Release(m)
	})
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 100})
	})
	k.Run()
	// The forwarding hop at node 1 preempts the app for 20 µs.
	if appDone != 1020 {
		t.Errorf("app done at %v, want 1020 (1000 work + 20 router theft)", appDone)
	}
	if got := net.NodeOf(1).CPU.Stats().Preemptions; got != 1 {
		t.Errorf("preemptions at node 1 = %d, want 1", got)
	}
}

func TestLinkSerialization(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	a := net.NewMailbox(0)
	b := net.NewMailbox(1)
	var deliveries []sim.Time
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(1).CPU.NewTask("recv", machine.PriLow)
		for i := 0; i < 2; i++ {
			m := net.Recv(p, task, b)
			deliveries = append(deliveries, m.DeliveredAt)
			net.Release(m)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		for i := 0; i < 2; i++ {
			net.Send(p, task, &Message{Src: a.Addr(), Dst: b.Addr(), Bytes: 100})
		}
	})
	k.Run()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %v", deliveries)
	}
	// Transfers serialize on the one link: second delivery at least a full
	// transfer time (102) after the first.
	if gap := deliveries[1] - deliveries[0]; gap < 102 {
		t.Errorf("delivery gap = %v, want >= 102 (serialized link)", gap)
	}
}

func TestWormholeBypassesIntermediateMemory(t *testing.T) {
	run := func(mode Mode) (int64, sim.Time) {
		k := sim.NewKernel(1)
		mach := machine.NewMachine(k, 3, 1<<20, testCost())
		net := MustNewNetwork(mach, []int{0, 1, 2}, topology.MustBuild(topology.Linear, 3), mode)
		src := net.NewMailbox(0)
		dst := net.NewMailbox(2)
		var delivered sim.Time
		k.Spawn("recv", func(p *sim.Proc) {
			task := net.NodeOf(2).CPU.NewTask("recv", machine.PriLow)
			m := net.Recv(p, task, dst)
			delivered = m.DeliveredAt
			net.Release(m)
		})
		k.Spawn("send", func(p *sim.Proc) {
			task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
			net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 1000})
		})
		k.Run()
		peak := mach.Node(1).Mem.Stats().Peak
		k.Shutdown()
		return peak, delivered
	}
	safPeak, safTime := run(StoreForward)
	whPeak, whTime := run(Wormhole)
	if safPeak < 1000 {
		t.Errorf("SAF intermediate peak = %d, want >= 1000", safPeak)
	}
	if whPeak != 0 {
		t.Errorf("wormhole intermediate peak = %d, want 0", whPeak)
	}
	if whTime >= safTime {
		t.Errorf("wormhole delivery %v not faster than SAF %v", whTime, safTime)
	}
}

func TestWormholeSelfSend(t *testing.T) {
	k, _, net := rig(t, topology.Ring, 4, Wormhole, 1<<20)
	me := net.NewMailbox(2)
	got := false
	k.Spawn("self", func(p *sim.Proc) {
		task := net.NodeOf(2).CPU.NewTask("self", machine.PriLow)
		net.Send(p, task, &Message{Src: me.Addr(), Dst: me.Addr(), Bytes: 64})
		m := net.Recv(p, task, me)
		got = m.HopsTaken == 0
		net.Release(m)
	})
	k.Run()
	if !got {
		t.Error("wormhole self-send failed")
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var msg *Message
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(1).CPU.NewTask("recv", machine.PriLow)
		msg = net.Recv(p, task, dst)
		net.Release(msg)
	})
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 10})
	})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Release(msg)
}

func TestSendToUnknownMailboxPanics(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		net.Send(p, task, &Message{Src: src.Addr(), Dst: Addr{Node: 1, Box: 99}, Bytes: 10})
	})
	k.Run()
}

func TestTryRecv(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var first, second *Message
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(1).CPU.NewTask("recv", machine.PriLow)
		first = net.TryRecv(p, task, dst) // nothing yet
		p.Sleep(1000)
		second = net.TryRecv(p, task, dst)
		if second != nil {
			net.Release(second)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		task := net.NodeOf(0).CPU.NewTask("send", machine.PriLow)
		net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 10})
	})
	k.Run()
	if first != nil {
		t.Error("TryRecv before delivery should return nil")
	}
	if second == nil {
		t.Error("TryRecv after delivery should return the message")
	}
}

// TestAllMessagesDeliveredProperty sprays random messages across random
// topologies and checks full delivery and exact memory restitution.
func TestAllMessagesDeliveredProperty(t *testing.T) {
	f := func(seed int64, kindSel, sizeSel uint8, msgCount uint8) bool {
		kind := topology.Kind(int(kindSel) % 4)
		n := []int{2, 4, 8}[int(sizeSel)%3]
		count := int(msgCount)%24 + 1

		k := sim.NewKernel(seed)
		mach := machine.NewMachine(k, n, 1<<20, testCost())
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		net := MustNewNetwork(mach, ids, topology.MustBuild(kind, n), StoreForward)
		rng := rand.New(rand.NewSource(seed))

		boxes := make([]*Mailbox, n)
		for i := range boxes {
			boxes[i] = net.NewMailbox(i)
		}
		received := 0
		// One receiver per node draining everything sent to it.
		perNode := make([]int, n)
		type plan struct{ src, dst, bytes, delay int }
		var plans []plan
		for i := 0; i < count; i++ {
			pl := plan{src: rng.Intn(n), dst: rng.Intn(n), bytes: rng.Intn(2000), delay: rng.Intn(500)}
			perNode[pl.dst]++
			plans = append(plans, pl)
		}
		for i := 0; i < n; i++ {
			i := i
			k.Spawn("recv", func(p *sim.Proc) {
				task := net.NodeOf(i).CPU.NewTask("recv", machine.PriLow)
				for j := 0; j < perNode[i]; j++ {
					m := net.Recv(p, task, boxes[i])
					received++
					net.Release(m)
				}
			})
		}
		for _, pl := range plans {
			pl := pl
			k.Spawn("send", func(p *sim.Proc) {
				task := net.NodeOf(pl.src).CPU.NewTask("send", machine.PriLow)
				p.Sleep(sim.Time(pl.delay))
				net.Send(p, task, &Message{Src: boxes[pl.src].Addr(), Dst: boxes[pl.dst].Addr(), Bytes: int64(pl.bytes)})
			})
		}
		k.Run()
		ok := received == count
		st := net.Stats()
		ok = ok && st.MessagesSent == int64(count) && st.MessagesDelivered == int64(count)
		for i := 0; i < n; i++ {
			if mach.Node(i).Mem.Used() != 0 {
				ok = false
			}
		}
		k.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

// TestNetworkDeterminism runs the same message storm twice and compares
// delivery timestamps.
func TestNetworkDeterminism(t *testing.T) {
	run := func() []sim.Time {
		k := sim.NewKernel(5)
		mach := machine.NewMachine(k, 8, 1<<20, testCost())
		ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
		net := MustNewNetwork(mach, ids, topology.MustBuild(topology.Mesh, 8), StoreForward)
		boxes := make([]*Mailbox, 8)
		for i := range boxes {
			boxes[i] = net.NewMailbox(i)
		}
		var times []sim.Time
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("recv", func(p *sim.Proc) {
				task := net.NodeOf(i).CPU.NewTask("recv", machine.PriLow)
				for j := 0; j < 7; j++ {
					m := net.Recv(p, task, boxes[i])
					times = append(times, m.DeliveredAt)
					net.Release(m)
				}
			})
		}
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("send", func(p *sim.Proc) {
				task := net.NodeOf(i).CPU.NewTask("send", machine.PriLow)
				for j := 0; j < 8; j++ {
					if j == i {
						continue
					}
					net.Send(p, task, &Message{Src: boxes[i].Addr(), Dst: boxes[j].Addr(), Bytes: int64(100 * (j + 1))})
				}
			})
		}
		k.Run()
		k.Shutdown()
		return times
	}
	a, b := run(), run()
	if len(a) != 56 || len(b) != 56 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism violated at %d", i)
		}
	}
}

func TestNetworkAccessors(t *testing.T) {
	_, mach, net := rig(t, topology.Ring, 4, StoreForward, 1<<20)
	if net.Mode() != StoreForward || net.Size() != 4 {
		t.Error("accessors")
	}
	if net.Graph().Kind != topology.Ring {
		t.Error("graph kind")
	}
	if net.GlobalNode(2) != 2 || net.NodeOf(2) != mach.Node(2) {
		t.Error("node mapping")
	}
}

func TestNetworkGraphSizeMismatchErrors(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	mach := machine.NewMachine(k, 4, 1<<20, testCost())
	if _, err := NewNetwork(mach, []int{0, 1}, topology.MustBuild(topology.Linear, 3), StoreForward); err == nil {
		t.Fatal("expected an error for a graph/node-count mismatch")
	}
	if _, err := NewNetwork(mach, []int{0, 0}, topology.MustBuild(topology.Linear, 2), StoreForward); err == nil {
		t.Fatal("expected an error for a duplicated node")
	}
}
