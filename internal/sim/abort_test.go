package sim

import "testing"

// TestAbortParked verifies a parked process unwinds with Aborted and its
// body can recover for cleanup.
func TestAbortParked(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	cleaned := false
	var aborted bool
	p := k.Spawn("victim", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Aborted); !ok {
					panic(r)
				}
				aborted = true
				cleaned = true
			}
		}()
		p.Park("waiting forever")
		t.Error("park returned after abort")
	})
	k.AtFunc(10, func() { p.Abort() })
	k.Run()
	if !aborted || !cleaned {
		t.Fatalf("aborted=%v cleaned=%v, want both true", aborted, cleaned)
	}
	if !p.Finished() {
		t.Error("aborted process not finished")
	}
	if k.LiveProcs() != 0 {
		t.Errorf("%d live procs after abort", k.LiveProcs())
	}
}

// TestAbortRunning verifies an abort delivered while the process is running
// (here: self-delivered between parks) takes effect at its next park point,
// not before.
func TestAbortRunning(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	var reached, after bool
	k.Spawn("victim", func(p *Proc) {
		defer func() {
			if _, ok := recover().(Aborted); !ok {
				t.Error("expected Aborted")
			}
		}()
		p.Sleep(5)
		p.Abort() // while runnable: takes effect at the next park
		reached = true
		p.Sleep(1) // parks; abort fires here
		after = true
	})
	k.Run()
	if !reached || after {
		t.Fatalf("reached=%v after=%v, want true/false", reached, after)
	}
}

// TestAbortFinishedNoop checks aborting a completed process does nothing.
func TestAbortFinishedNoop(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	p := k.Spawn("quick", func(p *Proc) {})
	k.Run()
	p.Abort() // must not panic or schedule anything
	if k.PendingEvents() != 0 {
		t.Error("abort of finished proc scheduled events")
	}
}
