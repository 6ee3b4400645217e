package comm

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// sendAt arms a send of bytes from src to dst mailboxes at time at.
func sendAt(k *sim.Kernel, net *Network, at sim.Time, src, dst *Mailbox, bytes int64, tag string) {
	k.AtFunc(at, func() {
		k.Spawn("send "+tag, func(p *sim.Proc) {
			task := net.NodeOf(src.Addr().Node).CPU.NewTask("send", machine.PriLow)
			net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: bytes, Tag: tag})
		})
	})
}

// recvInto spawns a receiver that collects every arriving message.
func recvInto(k *sim.Kernel, net *Network, box *Mailbox, out *[]*Message) {
	k.Spawn("recv", func(p *sim.Proc) {
		task := net.NodeOf(box.Addr().Node).CPU.NewTask("recv", machine.PriLow)
		for {
			m := net.Recv(p, task, box)
			*out = append(*out, m)
			net.Release(m)
		}
	})
}

// TestLinkDownDetour: on a 4-ring, cutting the direct link makes the message
// take the long way around.
func TestLinkDownDetour(t *testing.T) {
	k, _, net := rig(t, topology.Ring, 4, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var got []*Message
	recvInto(k, net, dst, &got)
	k.AtFunc(1, func() { net.SetLinkState(0, 1, false) })
	sendAt(k, net, 10, src, dst, 64, "detour")
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].HopsTaken != 3 {
		t.Errorf("hops = %d, want 3 (detour 0-3-2-1)", got[0].HopsTaken)
	}
	if st := net.Stats(); st.Drops != 0 || st.MessagesDelivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLinkRepairRestoresRoute: after repair the direct route is used again.
func TestLinkRepairRestoresRoute(t *testing.T) {
	k, _, net := rig(t, topology.Ring, 4, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var got []*Message
	recvInto(k, net, dst, &got)
	k.AtFunc(1, func() { net.SetLinkState(0, 1, false) })
	k.AtFunc(2, func() { net.SetLinkState(0, 1, true) })
	sendAt(k, net, 10, src, dst, 64, "direct")
	k.Run()
	if len(got) != 1 || got[0].HopsTaken != 1 {
		t.Fatalf("got %d messages, hops %v; want 1 message with 1 hop", len(got), hopsOf(got))
	}
}

// TestCutPartitionDeliveryFailure: with the destination unreachable, retries
// exhaust and the failure handler fires exactly once.
func TestCutPartitionDeliveryFailure(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	net.EnableReliability(1000, 3)
	var failed []*Message
	net.SetFailureHandler(func(m *Message) { failed = append(failed, m) })
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var got []*Message
	recvInto(k, net, dst, &got)
	k.AtFunc(1, func() { net.SetLinkState(0, 1, false) })
	sendAt(k, net, 10, src, dst, 64, "doomed")
	k.Run()
	if len(got) != 0 {
		t.Fatalf("delivered %d messages over a cut link", len(got))
	}
	if len(failed) != 1 || failed[0].Tag != "doomed" {
		t.Fatalf("failure handler got %d calls, want 1", len(failed))
	}
	st := net.Stats()
	if st.Retries != 3 || st.DeliveryFailures != 1 {
		t.Errorf("retries=%d failures=%d, want 3 and 1", st.Retries, st.DeliveryFailures)
	}
	if st.Drops != 4 { // original + 3 retries, all unroutable at the source
		t.Errorf("drops = %d, want 4", st.Drops)
	}
}

// TestRetryRecoversAfterRepair: the link comes back before the budget runs
// out, so a retransmission gets through.
func TestRetryRecoversAfterRepair(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	net.EnableReliability(1000, 4)
	failures := 0
	net.SetFailureHandler(func(m *Message) { failures++ })
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var got []*Message
	recvInto(k, net, dst, &got)
	k.AtFunc(1, func() { net.SetLinkState(0, 1, false) })
	k.AtFunc(2500, func() { net.SetLinkState(0, 1, true) })
	sendAt(k, net, 10, src, dst, 64, "retried")
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1 after repair", len(got))
	}
	if failures != 0 {
		t.Errorf("%d delivery failures on a recoverable fault", failures)
	}
	st := net.Stats()
	if st.Retries == 0 || st.DeliveryFailures != 0 {
		t.Errorf("retries=%d failures=%d, want >0 and 0", st.Retries, st.DeliveryFailures)
	}
	// Exactly one copy got through; the budget stopped afterwards.
	if st.MessagesDelivered != 1 {
		t.Errorf("delivered = %d, want 1", st.MessagesDelivered)
	}
}

// TestInjectedDropRecovered: a drop function that loses the first traversal
// forces exactly one retransmission.
func TestInjectedDropRecovered(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	net.EnableReliability(1000, 4)
	first := true
	net.SetDropFn(func() bool {
		drop := first
		first = false
		return drop
	})
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var got []*Message
	recvInto(k, net, dst, &got)
	sendAt(k, net, 0, src, dst, 64, "dropped-once")
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	st := net.Stats()
	if st.Drops != 1 || st.Retries != 1 || st.Duplicates != 0 {
		t.Errorf("drops=%d retries=%d dups=%d, want 1/1/0", st.Drops, st.Retries, st.Duplicates)
	}
}

// TestDuplicateSuppressed: a timeout shorter than the transfer time makes the
// retransmission race the (healthy) original; only one copy is delivered.
func TestDuplicateSuppressed(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	// 4000-byte transfer takes ~4ms at 1 µs/byte; time out after 500 µs.
	net.EnableReliability(500, 4)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var got []*Message
	recvInto(k, net, dst, &got)
	sendAt(k, net, 0, src, dst, 4000, "slow")
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1", len(got))
	}
	st := net.Stats()
	if st.Retries == 0 || st.Duplicates == 0 {
		t.Errorf("retries=%d dups=%d, want both > 0", st.Retries, st.Duplicates)
	}
	if st.MessagesDelivered != 1 {
		t.Errorf("delivered = %d, want 1", st.MessagesDelivered)
	}
}

// TestRetireMailboxDeadLetters: messages to a retired mailbox are discarded
// and their buffers freed.
func TestRetireMailboxDeadLetters(t *testing.T) {
	k, mach, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	k.AtFunc(1, func() { net.RetireMailbox(dst) })
	sendAt(k, net, 10, src, dst, 64, "late")
	k.Run()
	st := net.Stats()
	if st.DeadLetters != 1 || st.MessagesDelivered != 0 {
		t.Errorf("deadLetters=%d delivered=%d, want 1 and 0", st.DeadLetters, st.MessagesDelivered)
	}
	for i := 0; i < 2; i++ {
		if used := mach.Node(i).Mem.Used(); used != 0 {
			t.Errorf("node %d holds %d bytes after dead-letter", i, used)
		}
	}
}

// TestRetireMailboxDiscardsQueue: messages already delivered but unread are
// freed at retirement.
func TestRetireMailboxDiscardsQueue(t *testing.T) {
	k, mach, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	sendAt(k, net, 0, src, dst, 64, "unread")
	k.AtFunc(100000, func() { net.RetireMailbox(dst) })
	k.Run()
	if dst.Len() != 0 {
		t.Errorf("retired mailbox still holds %d messages", dst.Len())
	}
	for i := 0; i < 2; i++ {
		if used := mach.Node(i).Mem.Used(); used != 0 {
			t.Errorf("node %d holds %d bytes after retirement", i, used)
		}
	}
}

// TestLinksSorted: the injector-facing link list is global, lower-first,
// sorted.
func TestLinksSorted(t *testing.T) {
	_, _, net := rig(t, topology.Ring, 4, StoreForward, 1<<20)
	links := net.Links()
	want := [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	if len(links) != len(want) {
		t.Fatalf("links = %v, want %v", links, want)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("links = %v, want %v", links, want)
		}
	}
}

// TestStatsAddSaturates: the overflow-safe merge pins at the int64 extremes.
func TestStatsAddSaturates(t *testing.T) {
	a := Stats{MessagesSent: 1<<63 - 10, Drops: 1<<63 - 1}
	a.Add(Stats{MessagesSent: 100, Drops: 100, Retries: 7})
	if a.MessagesSent != 1<<63-1 || a.Drops != 1<<63-1 {
		t.Errorf("saturation failed: %+v", a)
	}
	if a.Retries != 7 {
		t.Errorf("plain add broken: %+v", a)
	}
}

// TestSetLinkStateIgnoresForeignPairs: events for links outside the
// partition (or non-adjacent pairs) are ignored.
func TestSetLinkStateIgnoresForeignPairs(t *testing.T) {
	k, _, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	net.SetLinkState(5, 6, false) // not in partition
	net.SetLinkState(0, 0, false) // not a link
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	var got []*Message
	recvInto(k, net, dst, &got)
	sendAt(k, net, 0, src, dst, 64, "fine")
	k.Run()
	if len(got) != 1 || got[0].HopsTaken != 1 {
		t.Fatalf("foreign link events disturbed routing: %d messages", len(got))
	}
}

func hopsOf(ms []*Message) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.HopsTaken
	}
	return out
}
