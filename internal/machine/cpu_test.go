package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const q = 2 * sim.Millisecond // test quantum

func TestPriorityString(t *testing.T) {
	if PriHigh.String() != "high" || PriLow.String() != "low" {
		t.Error("priority names")
	}
}

func TestSingleLowBurstRunsToCompletion(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var done sim.Time
	task := c.NewTask("a", PriLow)
	k.Spawn("a", func(p *sim.Proc) {
		task.Compute(p, 5*q) // longer than a quantum, but alone
		done = p.Now()
	})
	k.Run()
	if done != 5*q {
		t.Errorf("done at %v, want %v", done, 5*q)
	}
	st := c.Stats()
	if st.BusyLow != 5*q || st.BusyHigh != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.QuantumExpiries != 0 {
		t.Errorf("expiries = %d, want 0 (extended slice)", st.QuantumExpiries)
	}
}

func TestTwoLowBurstsRoundRobin(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var doneA, doneB sim.Time
	ta := c.NewTask("a", PriLow)
	tb := c.NewTask("b", PriLow)
	k.Spawn("a", func(p *sim.Proc) { ta.Compute(p, 2*q); doneA = p.Now() })
	k.Spawn("b", func(p *sim.Proc) { tb.Compute(p, 2*q); doneB = p.Now() })
	k.Run()
	// Round robin: a q, b q, a q (done at 3q), b q (done at 4q).
	if doneA != 3*q {
		t.Errorf("a done at %v, want %v", doneA, 3*q)
	}
	if doneB != 4*q {
		t.Errorf("b done at %v, want %v", doneB, 4*q)
	}
	st := c.Stats()
	if st.BusyLow != 4*q {
		t.Errorf("busy low = %v", st.BusyLow)
	}
	if st.QuantumExpiries < 2 {
		t.Errorf("expiries = %d, want >= 2", st.QuantumExpiries)
	}
}

func TestHighRunsToCompletionAheadOfLow(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var order []string
	th := c.NewTask("h", PriHigh)
	tl := c.NewTask("l", PriLow)
	// Both submitted at t=0; low spawned first but high must win.
	k.Spawn("l", func(p *sim.Proc) { tl.Compute(p, q); order = append(order, "l") })
	k.Spawn("h", func(p *sim.Proc) { th.Compute(p, 5*q); order = append(order, "h") })
	k.Run()
	if len(order) != 2 || order[0] != "h" || order[1] != "l" {
		t.Fatalf("order = %v, want [h l]", order)
	}
}

func TestHighPreemptsRunningLow(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var doneH, doneL sim.Time
	tl := c.NewTask("l", PriLow)
	th := c.NewTask("h", PriHigh)
	k.Spawn("l", func(p *sim.Proc) { tl.Compute(p, 4*q); doneL = p.Now() })
	k.Spawn("h", func(p *sim.Proc) {
		p.Sleep(q / 2) // arrive mid-quantum
		th.Compute(p, q)
		doneH = p.Now()
	})
	k.Run()
	if doneH != q/2+q {
		t.Errorf("high done at %v, want %v", doneH, q/2+q)
	}
	// Low loses no work, only position: total = 4q work + q preemption.
	if doneL != 5*q {
		t.Errorf("low done at %v, want %v", doneL, 5*q)
	}
	st := c.Stats()
	if st.Preemptions != 1 {
		t.Errorf("preemptions = %d", st.Preemptions)
	}
	if st.BusyHigh != q || st.BusyLow != 4*q {
		t.Errorf("busy = %+v", st)
	}
}

func TestPreemptedLowGoesToBackOfQueue(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var order []string
	ta := c.NewTask("a", PriLow)
	tb := c.NewTask("b", PriLow)
	th := c.NewTask("h", PriHigh)
	// a starts alone; b arrives at q/4; h arrives at q/2 preempting a
	// mid-burst. After h, the low queue should be [b, a] — a lost its
	// quantum slot and finishes last.
	k.Spawn("a", func(p *sim.Proc) { ta.Compute(p, q); order = append(order, "a") })
	k.Spawn("b", func(p *sim.Proc) {
		p.Sleep(q / 4)
		tb.Compute(p, q/4)
		order = append(order, "b")
	})
	k.Spawn("h", func(p *sim.Proc) {
		p.Sleep(q / 2)
		th.Compute(p, q/4)
		order = append(order, "h")
	})
	k.Run()
	want := []string{"h", "b", "a"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLowArrivalTrimsExtendedSlice(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var doneA, doneB sim.Time
	ta := c.NewTask("a", PriLow)
	tb := c.NewTask("b", PriLow)
	// a runs alone with an extended slice (3q of work). b arrives at q/2.
	// The hardware rotates at the next quantum boundary: t=q. So b runs
	// [q, 2q), a runs [2q, 4q) — with only a left it extends again.
	k.Spawn("a", func(p *sim.Proc) { ta.Compute(p, 3*q); doneA = p.Now() })
	k.Spawn("b", func(p *sim.Proc) {
		p.Sleep(q / 2)
		tb.Compute(p, q)
		doneB = p.Now()
	})
	k.Run()
	if doneB != 2*q {
		t.Errorf("b done at %v, want %v", doneB, 2*q)
	}
	if doneA != 4*q {
		t.Errorf("a done at %v, want %v", doneA, 4*q)
	}
}

func TestArrivalPastQuantumBoundaryRotatesAtNextBoundary(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var doneB sim.Time
	ta := c.NewTask("a", PriLow)
	tb := c.NewTask("b", PriLow)
	// a alone for 10q; b arrives at 2.5q -> rotation at 3q.
	k.Spawn("a", func(p *sim.Proc) { ta.Compute(p, 10*q) })
	k.Spawn("b", func(p *sim.Proc) {
		p.Sleep(2*q + q/2)
		tb.Compute(p, q/2)
		doneB = p.Now()
	})
	k.Run()
	if doneB != 3*q+q/2 {
		t.Errorf("b done at %v, want %v", doneB, 3*q+q/2)
	}
}

func TestChargeAsync(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var at sim.Time = -1
	c.ChargeAsync(PriHigh, 100, func() { at = k.Now() })
	k.Run()
	if at != 100 {
		t.Errorf("async charge done at %v", at)
	}
	// Zero-length charge still invokes the callback.
	at = -1
	c.ChargeAsync(PriLow, 0, func() { at = k.Now() })
	k.Run()
	if at != 100 {
		t.Errorf("zero charge callback at %v", at)
	}
}

func TestSuspendResumeQueuedTask(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var done sim.Time
	tl := c.NewTask("l", PriLow)
	blocker := c.NewTask("blocker", PriLow)
	k.Spawn("blocker", func(p *sim.Proc) { blocker.Compute(p, 10*q) })
	k.Spawn("l", func(p *sim.Proc) {
		p.Sleep(1) // make sure blocker is running
		tl.Compute(p, q)
		done = p.Now()
	})
	k.AfterFunc(2, func() { tl.Suspend() })
	k.AfterFunc(5*q, func() { tl.Resume() })
	k.Run()
	// l was suspended while queued; once resumed it round-robins with
	// blocker. Without suspension it would have finished much earlier.
	if done < 5*q {
		t.Errorf("suspended task finished at %v, before resume at %v", done, 5*q)
	}
	if done == 0 {
		t.Error("task never completed")
	}
}

func TestSuspendRunningTaskPreservesWork(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var done sim.Time
	tl := c.NewTask("l", PriLow)
	k.Spawn("l", func(p *sim.Proc) {
		tl.Compute(p, 2*q)
		done = p.Now()
	})
	k.AfterFunc(q/2, func() { tl.Suspend() })
	k.AfterFunc(10*q, func() { tl.Resume() })
	k.Run()
	// Ran q/2, suspended for the gap, needs 1.5q more after resume.
	want := 10*q + 2*q - q/2
	if done != want {
		t.Errorf("done at %v, want %v", done, want)
	}
	if c.Stats().BusyLow != 2*q {
		t.Errorf("busy low = %v, want %v", c.Stats().BusyLow, 2*q)
	}
}

func TestComputeWhileSuspendedWaitsForResume(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	tl := c.NewTask("l", PriLow)
	tl.Suspend()
	var done sim.Time
	k.Spawn("l", func(p *sim.Proc) {
		tl.Compute(p, q)
		done = p.Now()
	})
	k.AfterFunc(3*q, func() { tl.Resume() })
	k.Run()
	if done != 4*q {
		t.Errorf("done at %v, want %v", done, 4*q)
	}
	if !tl.Suspended() == true && done == 0 {
		t.Error("unreachable")
	}
}

func TestSuspendIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	tl := c.NewTask("l", PriLow)
	tl.Suspend()
	tl.Suspend()
	tl.Resume()
	tl.Resume()
	if tl.Suspended() {
		t.Error("should be resumed")
	}
	_ = c
}

func TestZeroComputeReturnsImmediately(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	tl := c.NewTask("l", PriLow)
	ran := false
	k.Spawn("l", func(p *sim.Proc) {
		tl.Compute(p, 0)
		tl.Compute(p, -5)
		ran = true
	})
	k.Run()
	if !ran || k.Now() != 0 {
		t.Errorf("ran=%v now=%v", ran, k.Now())
	}
}

func TestOverlappingBurstsPanic(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	tl := c.NewTask("l", PriLow)
	tl.Suspend()
	k.Spawn("a", func(p *sim.Proc) { tl.Compute(p, q) })
	k.Spawn("b", func(p *sim.Proc) { tl.Compute(p, q) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Run()
}

func TestHighDoesNotPreemptHigh(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	var order []string
	ta := c.NewTask("a", PriHigh)
	tb := c.NewTask("b", PriHigh)
	k.Spawn("a", func(p *sim.Proc) { ta.Compute(p, 10*q); order = append(order, "a") })
	k.Spawn("b", func(p *sim.Proc) {
		p.Sleep(1)
		tb.Compute(p, q)
		order = append(order, "b")
	})
	k.Run()
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("order = %v, want a first (no high-high preemption)", order)
	}
}

func TestBadQuantumPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCPU(sim.NewKernel(1), 0, 0)
}

// TestWorkConservation: the CPU is never idle while work is queued — total
// busy time equals total demand, and the last completion time is at least
// total demand (exactly, when all bursts arrive at t=0).
func TestWorkConservation(t *testing.T) {
	f := func(demands []uint16, hi []bool, seed int64) bool {
		if len(demands) == 0 {
			return true
		}
		if len(demands) > 40 {
			demands = demands[:40]
		}
		k := sim.NewKernel(seed)
		c := NewCPU(k, 0, q)
		var total sim.Time
		for i, d := range demands {
			dd := sim.Time(d%5000) + 1
			total += dd
			prio := PriLow
			if i < len(hi) && hi[i] {
				prio = PriHigh
			}
			task := c.NewTask("t", prio)
			k.Spawn("t", func(p *sim.Proc) { task.Compute(p, dd) })
		}
		k.Run()
		k.Shutdown()
		st := c.Stats()
		return st.Busy() == total && k.Now() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

// TestRoundRobinFairness: n equal low-priority bursts submitted together
// finish within one quantum-ish spread of each other near n*burst.
func TestRoundRobinFairness(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	const n = 8
	burst := 10 * q
	var finish [n]sim.Time
	for i := 0; i < n; i++ {
		i := i
		task := c.NewTask("t", PriLow)
		k.Spawn("t", func(p *sim.Proc) {
			task.Compute(p, burst)
			finish[i] = p.Now()
		})
	}
	k.Run()
	min, max := finish[0], finish[0]
	for _, f := range finish[1:] {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if max-min > sim.Time(n)*q {
		t.Errorf("finish spread %v too wide for RR (min=%v max=%v)", max-min, min, max)
	}
	if max != sim.Time(n)*burst {
		t.Errorf("last finish %v, want %v", max, sim.Time(n)*burst)
	}
}

// TestDeterminismUnderMixedLoad: identical runs produce identical traces.
func TestDeterminismUnderMixedLoad(t *testing.T) {
	run := func() []sim.Time {
		k := sim.NewKernel(99)
		c := NewCPU(k, 0, q)
		var finishes []sim.Time
		for i := 0; i < 12; i++ {
			prio := PriLow
			if i%4 == 0 {
				prio = PriHigh
			}
			d := sim.Time((i*337)%4000 + 10)
			start := sim.Time((i * 211) % 1500)
			task := c.NewTask("t", prio)
			k.Spawn("t", func(p *sim.Proc) {
				p.Sleep(start)
				task.Compute(p, d)
				finishes = append(finishes, p.Now())
			})
		}
		k.Run()
		k.Shutdown()
		return finishes
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestQueueLensAndRunning(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, 0, q)
	if c.Running() {
		t.Error("idle CPU reported running")
	}
	for i := 0; i < 3; i++ {
		task := c.NewTask("t", PriLow)
		k.Spawn("t", func(p *sim.Proc) { task.Compute(p, q) })
	}
	k.AfterFunc(1, func() {
		if !c.Running() {
			t.Error("CPU should be running")
		}
		h, l := c.QueueLens()
		if h != 0 || l != 2 {
			t.Errorf("queues = %d,%d want 0,2", h, l)
		}
	})
	k.Run()
}
