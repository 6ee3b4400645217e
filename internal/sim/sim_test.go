package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0µs"},
		{999, "999µs"},
		{1000, "1.000ms"},
		{2500, "2.500ms"},
		{Second, "1.000000s"},
		{3*Second + 500*Millisecond, "3.500000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := FromDuration((3 * Second).Duration()); got != 3*Second {
		t.Errorf("round trip via Duration = %v, want %v", got, 3*Second)
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.AfterFunc(10, func() { order = append(order, 2) })
	k.AfterFunc(5, func() { order = append(order, 1) })
	k.AfterFunc(10, func() { order = append(order, 3) }) // same time: insertion order
	k.AfterFunc(20, func() { order = append(order, 4) })
	k.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 20 {
		t.Errorf("clock = %v, want 20", k.Now())
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel(1)
	fired := Time(-1)
	k.AfterFunc(10, func() {
		k.AfterFunc(-5, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 10 {
		t.Errorf("negative-delay event fired at %v, want 10", fired)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	k := NewKernel(1)
	fired := Time(-1)
	k.AfterFunc(10, func() {
		k.AtFunc(3, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 10 {
		t.Errorf("past At event fired at %v, want 10", fired)
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	ran := false
	tm := k.NewTimer(func() { ran = true })
	tm.Reset(10)
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("stopped timer should not be pending")
	}
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.NewTimer(func() {})
	tm.Reset(1)
	k.Run()
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
	if tm.Stop() {
		t.Error("Stop after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		k.AfterFunc(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	if k.Now() != 10 {
		t.Errorf("clock = %v, want 10 (last executed event)", k.Now())
	}
	k.RunUntil(MaxTime)
	if len(fired) != 4 {
		t.Fatalf("after full run fired = %v", fired)
	}
}

func TestStep(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.AfterFunc(1, func() { count++ })
	k.AfterFunc(2, func() { count++ })
	if !k.Step() {
		t.Fatal("Step should run first event")
	}
	if count != 1 {
		t.Fatalf("count = %d after one step", count)
	}
	if !k.Step() {
		t.Fatal("Step should run second event")
	}
	if k.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestPendingEventsSkipsCancelled(t *testing.T) {
	k := NewKernel(1)
	k.AfterFunc(1, func() {})
	tm := k.NewTimer(func() {})
	tm.Reset(2)
	tm.Stop()
	if got := k.PendingEvents(); got != 1 {
		t.Errorf("PendingEvents = %d, want 1", got)
	}
}

func TestSpawnRunsBody(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	k.Spawn("worker", func(p *Proc) {
		trace = append(trace, "start")
		p.Sleep(100)
		trace = append(trace, "after-sleep")
	})
	k.Run()
	if len(trace) != 2 || trace[0] != "start" || trace[1] != "after-sleep" {
		t.Fatalf("trace = %v", trace)
	}
	if k.Now() != 100 {
		t.Errorf("clock = %v, want 100", k.Now())
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a runs first (spawn order), parks at Sleep(0); b runs; then a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParkWake(t *testing.T) {
	k := NewKernel(1)
	var got Time
	var waiter *Proc
	waiter = k.Spawn("waiter", func(p *Proc) {
		p.Park("test wait")
		got = p.Now()
	})
	k.AfterFunc(50, func() { waiter.Wake() })
	k.Run()
	if got != 50 {
		t.Errorf("waiter resumed at %v, want 50", got)
	}
}

func TestWakePermit(t *testing.T) {
	// A Wake delivered while the process is running makes the next Park
	// return immediately.
	k := NewKernel(1)
	var resumedAt Time = -1
	k.Spawn("self", func(p *Proc) {
		p.Wake() // permit to self
		p.Park("should not block")
		resumedAt = p.Now()
	})
	k.Run()
	if resumedAt != 0 {
		t.Errorf("park with permit resumed at %v, want 0 (immediately)", resumedAt)
	}
}

func TestWakeFinishedProcIsNoop(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("quick", func(p *Proc) {})
	k.AfterFunc(10, func() { p.Wake() })
	k.Run() // must not hang or panic
	if !p.Finished() {
		t.Error("proc should be finished")
	}
}

func TestParkedProcsReporting(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("stuck", func(p *Proc) {
		p.Park("waiting for godot")
	})
	k.Run()
	parked := k.ParkedProcs()
	if len(parked) != 1 {
		t.Fatalf("parked = %v, want 1 entry", parked)
	}
	if parked[0] != `stuck (parked: waiting for godot)` {
		t.Errorf("parked[0] = %q", parked[0])
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Shutdown = %d", k.LiveProcs())
	}
}

func TestShutdownUnwindsManyProcs(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 50; i++ {
		k.Spawn("daemon", func(p *Proc) {
			for {
				p.Park("forever")
			}
		})
	}
	k.Run()
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Shutdown = %d, want 0", k.LiveProcs())
	}
	// Shutdown is idempotent.
	k.Shutdown()
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bomb", func(p *Proc) {
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from kernel Run")
		}
	}()
	k.Run()
}

func TestProcIDsAndNames(t *testing.T) {
	k := NewKernel(1)
	a := k.Spawn("alpha", func(p *Proc) {})
	b := k.Spawn("beta", func(p *Proc) {})
	if a.Name() != "alpha" || b.Name() != "beta" {
		t.Errorf("names = %q, %q", a.Name(), b.Name())
	}
	if a.ID() >= b.ID() {
		t.Errorf("IDs not increasing: %d, %d", a.ID(), b.ID())
	}
	if a.Kernel() != k {
		t.Error("Kernel() accessor wrong")
	}
	k.Run()
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		k := NewKernel(seed)
		var trace []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			k.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					d := Time(k.Rand().Intn(100) + 1)
					p.Sleep(d)
					trace = append(trace, name)
				}
			})
		}
		k.Run()
		k.Shutdown()
		return trace
	}
	t1 := run(42)
	t2 := run(42)
	if len(t1) != 15 || len(t2) != 15 {
		t.Fatalf("trace lengths %d, %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, t1, t2)
		}
	}
}

// TestEventQueueHeapProperty is a property-based check that the event queue
// dequeues in (time, seq) order for arbitrary insert sequences.
func TestEventQueueHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel(1)
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			k.AtFunc(at, func() { fired = append(fired, at) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestStableOrderAmongEqualTimes verifies FIFO order among events scheduled
// for the same activation time regardless of heap internals.
func TestStableOrderAmongEqualTimes(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%64) + 2
		k := NewKernel(1)
		var fired []int
		// Interleave with some earlier events to exercise heap reshuffling.
		k.AfterFunc(1, func() {})
		for i := 0; i < count; i++ {
			i := i
			k.AtFunc(10, func() { fired = append(fired, i) })
			if i%3 == 0 {
				k.AtFunc(Time(2+i%5), func() {})
			}
		}
		k.Run()
		for i := range fired {
			if fired[i] != i {
				return false
			}
		}
		return len(fired) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

func TestSpawnAfterShutdownPanics(t *testing.T) {
	k := NewKernel(1)
	k.Run()
	k.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Spawn("late", func(p *Proc) {})
}
