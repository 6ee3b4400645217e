package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestParkReasonSleep pins the stall report of a sleeping process: the
// reason names the sleep's full length, not the time left.
func TestParkReasonSleep(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	k.Spawn("napper", func(p *Proc) { p.Sleep(1500 * Millisecond) })
	k.Spawn("dozer", func(p *Proc) { p.Sleep(750) })
	k.Spawn("idler", func(p *Proc) { p.Sleep(3 * Second) })
	k.RunUntil(10)
	want := []string{
		"napper (parked: sleep 1.500000s)",
		"dozer (parked: sleep 750µs)",
		"idler (parked: sleep 3.000000s)",
	}
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ParkedProcs() = %q, want %q", got, want)
	}
	k.RunUntil(1000)
	want = []string{"napper (parked: sleep 1.500000s)", "idler (parked: sleep 3.000000s)"}
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("after the short sleep: ParkedProcs() = %q, want %q", got, want)
	}
}

// TestParkReasonClearedOnWake: a woken process leaves the stall report at
// once, before it has run again.
func TestParkReasonClearedOnWake(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	p := k.Spawn("sleeper", func(p *Proc) { p.Park("nap") })
	k.RunUntil(0)
	if got, want := k.ParkedProcs(), []string{"sleeper (parked: nap)"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParkedProcs() = %q, want %q", got, want)
	}
	p.Wake()
	if got := k.ParkedProcs(); len(got) != 0 {
		t.Errorf("ParkedProcs() after Wake = %q, want none", got)
	}
	k.Run()
	if !p.Finished() {
		t.Error("woken process did not finish")
	}
}

// panicMessage runs drive and returns the value it panicked with.
func panicMessage(t *testing.T, drive func()) (msg any) {
	t.Helper()
	defer func() { msg = recover() }()
	drive()
	t.Fatal("expected a panic")
	return nil
}

// TestProcPanicSurfacesFromRunAndStep: a body panic reaches the caller of
// Run and of Step with the process name attached, both when the body
// panics on its first run and after it has parked and been woken.
func TestProcPanicSurfacesFromRunAndStep(t *testing.T) {
	const want = `sim: process "x" panicked: boom`
	bodies := map[string]func(p *Proc){
		"at start":   func(p *Proc) { panic("boom") },
		"after park": func(p *Proc) { p.Sleep(5); panic("boom") },
	}
	for name, body := range bodies {
		k := NewKernel(1)
		k.Spawn("x", body)
		if got := panicMessage(t, k.Run); got != want {
			t.Errorf("Run, panic %s: got %#v, want %q", name, got, want)
		}
		if k.LiveProcs() != 0 {
			t.Errorf("Run, panic %s: %d live procs after the panic", name, k.LiveProcs())
		}
		k.Shutdown()

		k = NewKernel(1)
		k.Spawn("x", body)
		got := panicMessage(t, func() {
			for k.Step() {
			}
		})
		if got != want {
			t.Errorf("Step, panic %s: got %#v, want %q", name, got, want)
		}
		k.Shutdown()
	}
}

// TestProcPanicKernelUsableAfterwards: after a body panic has surfaced,
// the other processes keep their state and the kernel keeps running them.
func TestProcPanicKernelUsableAfterwards(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	done := false
	k.Spawn("bomb", func(p *Proc) { p.Sleep(1); panic("boom") })
	k.Spawn("steady", func(p *Proc) { p.Sleep(10); done = true })
	panicMessage(t, k.Run)
	k.Run()
	if !done {
		t.Error("surviving process did not finish after the panic")
	}
}

// TestAbortedUnrecoveredPanics: an abort the body does not recover
// surfaces from Run like any other body panic.
func TestAbortedUnrecoveredPanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	p := k.Spawn("victim", func(p *Proc) { p.Park("forever") })
	k.AtFunc(3, p.Abort)
	const want = `sim: process "victim" panicked: sim: process aborted`
	if got := panicMessage(t, k.Run); got != want {
		t.Errorf("got %#v, want %q", got, want)
	}
}

// TestShutdownThousandParkedProcs: Shutdown unwinds every parked process,
// running its deferred cleanup, and leaves no goroutine behind.
func TestShutdownThousandParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	const n = 1000
	cleaned := 0
	for i := 0; i < n; i++ {
		k.Spawn("daemon", func(p *Proc) {
			defer func() { cleaned++ }()
			for {
				p.Park("forever")
			}
		})
	}
	k.Run()
	if got := len(k.ParkedProcs()); got != n {
		t.Fatalf("%d parked procs before Shutdown, want %d", got, n)
	}
	k.Shutdown()
	if cleaned != n {
		t.Errorf("deferred cleanup ran in %d of %d procs", cleaned, n)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Shutdown = %d, want 0", k.LiveProcs())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after Shutdown, %d before the kernel", got, before)
	}
}

// TestShutdownCleanupMayUseKernel: deferred cleanup running under Shutdown
// may still call kernel APIs such as Wake and Now.
func TestShutdownCleanupMayUseKernel(t *testing.T) {
	k := NewKernel(1)
	var other *Proc
	var at Time = -1
	other = k.Spawn("other", func(p *Proc) { p.Park("forever") })
	k.Spawn("cleaner", func(p *Proc) {
		defer func() {
			at = p.Now()
			other.Wake()
		}()
		p.Sleep(7)
		p.Park("forever")
	})
	k.Run()
	k.Shutdown()
	if at != 7 {
		t.Errorf("cleanup saw Now() = %v, want 7µs", at)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Shutdown = %d, want 0", k.LiveProcs())
	}
}

// TestHandoffResumesInWakeOrder: woken processes resume in wake order, each
// through its own event queued behind the events already pending for the
// same instant, and each runs alone until it parks again.
func TestHandoffResumesInWakeOrder(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	var order []string
	procs := map[string]*Proc{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		procs[name] = k.Spawn(name, func(p *Proc) {
			p.Park("wait")
			order = append(order, name+" in")
			p.Sleep(0)
			order = append(order, name+" out")
		})
	}
	k.AtFunc(5, func() {
		k.AfterFunc(0, func() { order = append(order, "queued") })
		procs["c"].Wake()
		procs["a"].Wake()
		procs["b"].Wake()
	})
	k.Run()
	want := []string{"queued", "c in", "a in", "b in", "c out", "a out", "b out"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("resume order %q, want %q", order, want)
	}
}

// name is a constant lazily formatted name or park reason.
type name string

func (n name) String() string { return string(n) }

// TestStepperStartsOnWake: a stepper whose step opens with a wait reports
// its reason from its start event on, runs on only once woken, goes on at
// the start event when a Wake came first, and leaves nothing to unwind when
// it is never woken.
func TestStepperStartsOnWake(t *testing.T) {
	k := NewKernel(1)
	var ran []string
	spawn := func(n string) *Proc {
		opened := false // whether the opening wait happened
		return k.SpawnStepper(name(n), func(p *Proc) {
			if !opened {
				opened = true
				if p.Wait(name("idle")) {
					return
				}
			}
			ran = append(ran, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
			p.Wait(name("idle"))
		})
	}
	late := spawn("late")
	early := spawn("early")
	spawn("never")
	early.Wake() // before its start event: a permit
	k.AtFunc(5, late.Wake)
	k.RunUntil(0)
	want := []string{"late (parked: idle)", "early (parked: idle)", "never (parked: idle)"}
	if got := k.ParkedProcs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ParkedProcs() = %q, want %q", got, want)
	}
	k.Run()
	if want := []string{"early@0µs", "late@5µs"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("steps ran %q, want %q", ran, want)
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Shutdown = %d, want 0", k.LiveProcs())
	}
}

// TestStepperParkPanics: a stepper has no stack to park, so Park on one
// panics with a message naming the process, out of the kernel loop.
func TestStepperParkPanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	k.SpawnStepper(name("daemon"), func(p *Proc) { p.Park("idle") })
	defer func() {
		want := `sim: Park on stepper "daemon": a stepper waits with Wait and returns`
		if r := recover(); r != want {
			t.Errorf("panic %v, want %q", r, want)
		}
	}()
	k.Run()
	t.Error("Run returned")
}
