package comm

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestParkReasonRouterAndRecv pins the stall report of an idle network, a
// receiver waiting on its mailbox, and a router daemon mid-DMA.
func TestParkReasonRouterAndRecv(t *testing.T) {
	k, mach, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	k.Spawn("receiver", func(p *sim.Proc) {
		task := mach.Node(1).CPU.NewTask("receiver", machine.PriLow)
		net.Recv(p, task, dst)
	})
	k.RunUntil(0)
	want := []string{
		"router0.deliver (parked: router delivery idle)",
		"router0.port0 (parked: router port idle)",
		"router1.deliver (parked: router delivery idle)",
		"router1.port0 (parked: router port idle)",
		"receiver (parked: recv on n1.b0)",
	}
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("idle network: ParkedProcs() = %q, want %q", got, want)
	}

	k.Spawn("sender", func(p *sim.Proc) {
		task := mach.Node(0).CPU.NewTask("sender", machine.PriLow)
		net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 1500, Tag: "x"})
	})
	// Send overhead 10µs, router hop 20µs, then 2µs latency plus 1500µs
	// on the wire.
	k.RunUntil(500)
	want[1] = "router0.port0 (parked: sleep 1.502ms)"
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("mid-transfer: ParkedProcs() = %q, want %q", got, want)
	}
}

// TestAbortScrubsRecvWaiter: aborting a process blocked in Recv unwinds it
// with Aborted and removes it from the mailbox's waiters, so a later
// delivery stays queued instead of waking a dead process.
func TestAbortScrubsRecvWaiter(t *testing.T) {
	k, mach, net := rig(t, topology.Linear, 2, StoreForward, 1<<20)
	src := net.NewMailbox(0)
	dst := net.NewMailbox(1)
	aborted := false
	victim := k.Spawn("victim", func(p *sim.Proc) {
		defer func() {
			if _, ok := recover().(sim.Aborted); ok {
				aborted = true
			}
		}()
		task := mach.Node(1).CPU.NewTask("victim", machine.PriLow)
		net.Recv(p, task, dst)
		t.Error("Recv returned after abort")
	})
	k.AtFunc(10, victim.Abort)
	k.AtFunc(20, func() {
		k.Spawn("sender", func(p *sim.Proc) {
			task := mach.Node(0).CPU.NewTask("sender", machine.PriLow)
			net.Send(p, task, &Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 8, Tag: "x"})
		})
	})
	k.Run()
	if !aborted {
		t.Fatal("victim did not unwind with Aborted")
	}
	if dst.waiters.Len() != 0 || dst.Len() != 1 {
		t.Errorf("mailbox has %d waiters and %d queued messages, want 0 and 1", dst.waiters.Len(), dst.Len())
	}
}

// TestStepperTakesNoCoroutine: router daemons are steppers. After an
// all-to-all on a 16-node mesh, in which every daemon forwarded or
// delivered messages, the finished ranks' coroutines have been released
// and no goroutine is left behind for any of the 64 daemons, which all
// report themselves idle.
func TestStepperTakesNoCoroutine(t *testing.T) {
	const n = 16
	// The previous test's goroutine can still be exiting when this test
	// starts, more often on a loaded host; let it go, so the baseline
	// counts only goroutines that outlive this test.
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		base = min(base, runtime.NumGoroutine())
	}
	k, mach, net := rig(t, topology.Mesh, n, StoreForward, 4<<20)
	boxes := make([]*Mailbox, n)
	for j := range boxes {
		boxes[j] = net.NewMailbox(j)
	}
	for j := 0; j < n; j++ {
		j := j
		k.Spawn("rank", func(p *sim.Proc) {
			task := mach.Node(j).CPU.NewTask("rank", machine.PriLow)
			for d := 0; d < n; d++ {
				if d != j {
					net.Send(p, task, &Message{Src: boxes[j].Addr(), Dst: boxes[d].Addr(), Bytes: 256, Tag: "a2a"})
				}
			}
			for r := 0; r < n-1; r++ {
				net.Release(net.Recv(p, task, boxes[j]))
			}
		})
	}
	k.Run()
	if got := net.Stats().MessagesDelivered; got != n*(n-1) {
		t.Fatalf("delivered %d messages, want %d", got, n*(n-1))
	}
	parked := k.ParkedProcs()
	const daemons = 16 + 2*24 // a delivery daemon per node, one per link direction
	if len(parked) != daemons {
		t.Fatalf("%d parked daemons, want %d: %q", len(parked), daemons, parked)
	}
	for _, p := range parked {
		if !strings.HasSuffix(p, " idle)") {
			t.Errorf("daemon not idle after the exchange: %s", p)
		}
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("%d goroutines after the exchange, want %d as before it", got, base)
	}
}

// TestParkLazyProcNames pins the text of the lazily formatted wormhole and
// retransmission names, which ParkedProcs and Diagnose print.
func TestParkLazyProcNames(t *testing.T) {
	m := &Message{Src: Addr{Node: 1, Box: 2}, Dst: Addr{Node: 3, Box: 4}, uid: 7}
	for _, c := range []struct {
		name fmt.Stringer
		want string
	}{
		{(*wormName)(m), "worm n1.b2->n3.b4"},
		{(*retxName)(m), "retx u7"},
		{(*retxTaskName)(m), "retx n1"},
	} {
		if got := c.name.String(); got != c.want {
			t.Errorf("%T = %q, want %q", c.name, got, c.want)
		}
	}
}
