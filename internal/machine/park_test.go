package machine

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestParkReasonCPUBurst pins the stall report of processes waiting on a
// compute burst, running or queued.
func TestParkReasonCPUBurst(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	cpu := NewCPU(k, 3, sim.Millisecond)
	for _, name := range []string{"a", "b"} {
		task := cpu.NewTask(name, PriLow)
		k.Spawn(name, func(p *sim.Proc) { task.Compute(p, 5*sim.Millisecond) })
	}
	k.RunUntil(2500)
	want := []string{"a (parked: cpu burst on node 3)", "b (parked: cpu burst on node 3)"}
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ParkedProcs() = %q, want %q", got, want)
	}
}

// TestParkReasonLinkAcquire pins the stall report of a process queued for
// a held link direction.
func TestParkReasonLinkAcquire(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	h := NewLink(k, 3, 7).AtoB
	k.Spawn("holder", func(p *sim.Proc) {
		h.Acquire(p)
		p.Park("holding")
	})
	k.Spawn("waiter", func(p *sim.Proc) { h.Acquire(p) })
	k.Run()
	want := []string{"holder (parked: holding)", "waiter (parked: acquire link 3->7)"}
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ParkedProcs() = %q, want %q", got, want)
	}
}

// TestAbortScrubsLinkWaiter: aborting a process queued on a link unwinds
// it with Aborted and removes its request, so the next release leaves the
// link idle instead of granting it to a dead process.
func TestAbortScrubsLinkWaiter(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	h := NewHalfLink(k, "link 0->1")
	k.Spawn("holder", func(p *sim.Proc) {
		h.Acquire(p)
		p.Sleep(100)
		h.Release()
	})
	aborted := false
	victim := k.Spawn("victim", func(p *sim.Proc) {
		defer func() {
			if _, ok := recover().(sim.Aborted); ok {
				aborted = true
			}
		}()
		h.Acquire(p)
		t.Error("Acquire returned after abort")
	})
	k.AtFunc(10, victim.Abort)
	k.Run()
	if !aborted {
		t.Fatal("victim did not unwind with Aborted")
	}
	if h.Busy() || h.waiters.Len() != 0 {
		t.Errorf("link busy=%v with %d waiters after abort and release", h.Busy(), h.waiters.Len())
	}
}

// TestAbortAfterLinkGrantReleases: an abort landing after the link was
// granted but before the waiter resumed gives the link back.
func TestAbortAfterLinkGrantReleases(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	h := NewHalfLink(k, "link 0->1")
	var victim *sim.Proc
	k.Spawn("holder", func(p *sim.Proc) {
		h.Acquire(p)
		p.Sleep(100)
		h.Release() // grants the link to victim and wakes it
		victim.Abort()
	})
	aborted := false
	victim = k.Spawn("victim", func(p *sim.Proc) {
		defer func() {
			if _, ok := recover().(sim.Aborted); ok {
				aborted = true
			}
		}()
		h.Acquire(p)
		t.Error("Acquire returned after abort")
	})
	k.Run()
	if !aborted {
		t.Fatal("victim did not unwind with Aborted")
	}
	if h.Busy() || h.waiters.Len() != 0 {
		t.Errorf("link busy=%v with %d waiters after a granted-then-aborted acquire", h.Busy(), h.waiters.Len())
	}
}
