package sim

import "testing"

func TestRunReentrancyPanics(t *testing.T) {
	k := NewKernel(1)
	k.AfterFunc(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run should panic")
			}
		}()
		k.Run()
	})
	k.Run()
}

func TestTimerAt(t *testing.T) {
	k := NewKernel(1)
	tm := k.NewTimer(func() {})
	tm.Reset(25)
	if tm.At() != 25 {
		t.Errorf("At = %v", tm.At())
	}
	k.Run()
	if tm.At() != 0 {
		t.Errorf("At = %v after fire, want 0", tm.At())
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("parent", func(p *Proc) {
		order = append(order, "parent-start")
		k.Spawn("child", func(c *Proc) {
			order = append(order, "child")
		})
		p.Sleep(10)
		order = append(order, "parent-end")
	})
	k.Run()
	want := []string{"parent-start", "child", "parent-end"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnFromEventCallback(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.AfterFunc(5, func() {
		k.Spawn("late", func(p *Proc) {
			p.Sleep(5)
			ran = true
		})
	})
	k.Run()
	if !ran || k.Now() != 10 {
		t.Errorf("ran=%v now=%v", ran, k.Now())
	}
}

func TestMultipleWakersFIFO(t *testing.T) {
	// Several procs parked on the same condition wake in wake-call order.
	k := NewKernel(1)
	var procs []*Proc
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		p := k.Spawn("w", func(p *Proc) {
			p.Park("wait")
			order = append(order, i)
		})
		procs = append(procs, p)
	}
	k.AfterFunc(10, func() {
		// Wake in reverse creation order; resumption must follow wake order.
		for i := len(procs) - 1; i >= 0; i-- {
			procs[i].Wake()
		}
	})
	k.Run()
	want := []int{3, 2, 1, 0}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestShutdownWithNothingParked(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("quick", func(p *Proc) {})
	k.Run()
	k.Shutdown() // must not hang
	if k.LiveProcs() != 0 {
		t.Errorf("live = %d", k.LiveProcs())
	}
}

func TestPendingEventsAfterRun(t *testing.T) {
	k := NewKernel(1)
	k.AfterFunc(1, func() {})
	k.Run()
	if k.PendingEvents() != 0 {
		t.Errorf("pending = %d after drain", k.PendingEvents())
	}
}

func TestRunUntilThenResume(t *testing.T) {
	k := NewKernel(1)
	var hits []Time
	p := k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			hits = append(hits, p.Now())
		}
	})
	k.RunUntil(25)
	if len(hits) != 2 {
		t.Fatalf("hits = %v after RunUntil(25)", hits)
	}
	k.Run() // resume to completion
	if len(hits) != 5 || hits[4] != 50 {
		t.Fatalf("hits = %v after full Run", hits)
	}
	if !p.Finished() {
		t.Error("proc should be finished")
	}
}

func TestStepDrivesProcs(t *testing.T) {
	k := NewKernel(1)
	stage := 0
	k.Spawn("p", func(p *Proc) {
		stage = 1
		p.Sleep(5)
		stage = 2
	})
	// Step 1: spawn event starts the proc (runs to the Sleep park).
	if !k.Step() || stage != 1 {
		t.Fatalf("after first step stage = %d", stage)
	}
	// Step 2: sleep timer fires, schedules resume. Step 3: resume runs.
	for k.Step() {
	}
	if stage != 2 {
		t.Fatalf("stage = %d at end", stage)
	}
}

func TestEventsRunCounter(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.AfterFunc(Time(i), func() {})
	}
	tm := k.NewTimer(func() {})
	tm.Reset(100)
	tm.Stop()
	k.Run()
	if got := k.EventsRun(); got != 5 {
		t.Errorf("EventsRun = %d, want 5 (cancelled events don't count)", got)
	}
}
