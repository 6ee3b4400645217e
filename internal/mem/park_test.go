package mem

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestParkReasonMemAlloc pins the stall report of processes blocked on
// node memory.
func TestParkReasonMemAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	m := New(k, 5, 1000)
	if !m.TryAlloc(900, ClassData) {
		t.Fatal("setup allocation")
	}
	k.Spawn("buf", func(p *sim.Proc) { m.Alloc(p, 300, ClassBuffer) })
	k.Spawn("data", func(p *sim.Proc) { m.Alloc(p, 50, ClassData) })
	k.Run()
	want := []string{"buf (parked: mem alloc 300B on node 5)", "data (parked: mem alloc 50B on node 5)"}
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ParkedProcs() = %q, want %q", got, want)
	}
}

// TestAbortScrubsMMUWaiter: aborting a process blocked on memory unwinds
// it with Aborted and drops its request, and requests queued behind it are
// admitted at once if they now fit.
func TestAbortScrubsMMUWaiter(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	m := New(k, 0, 1000)
	if !m.TryAlloc(900, ClassData) {
		t.Fatal("setup allocation")
	}
	aborted := false
	victim := k.Spawn("victim", func(p *sim.Proc) {
		defer func() {
			if _, ok := recover().(sim.Aborted); ok {
				aborted = true
			}
		}()
		m.Alloc(p, 500, ClassData)
		t.Error("Alloc returned after abort")
	})
	var small sim.Time = -1
	k.Spawn("small", func(p *sim.Proc) {
		m.Alloc(p, 100, ClassBuffer)
		small = p.Now()
	})
	k.AtFunc(10, victim.Abort)
	k.Run()
	if !aborted {
		t.Fatal("victim did not unwind with Aborted")
	}
	if small != 10 {
		t.Errorf("request behind the aborted one admitted at %v, want 10µs", small)
	}
	if m.Waiting() != 0 || m.Used() != 1000 {
		t.Errorf("after abort: %d waiters, %dB used; want 0 and 1000", m.Waiting(), m.Used())
	}
}

// TestAbortAfterMMUGrantFrees: an abort landing after the memory was
// granted but before the waiter resumed returns the bytes.
func TestAbortAfterMMUGrantFrees(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	m := New(k, 0, 1000)
	if !m.TryAlloc(900, ClassData) {
		t.Fatal("setup allocation")
	}
	aborted := false
	victim := k.Spawn("victim", func(p *sim.Proc) {
		defer func() {
			if _, ok := recover().(sim.Aborted); ok {
				aborted = true
			}
		}()
		m.Alloc(p, 500, ClassData)
		t.Error("Alloc returned after abort")
	})
	k.AtFunc(10, func() {
		m.FreeBytes(900) // grants victim's 500B and wakes it
		victim.Abort()
	})
	k.Run()
	if !aborted {
		t.Fatal("victim did not unwind with Aborted")
	}
	if m.Waiting() != 0 || m.Used() != 0 {
		t.Errorf("after abort: %d waiters, %dB used; want 0 and 0", m.Waiting(), m.Used())
	}
}
