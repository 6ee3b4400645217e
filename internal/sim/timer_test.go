package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestNewTimerStopped: a new timer is stopped, and creating it consumes
// no sequence number, so it does not move any other event's order.
func TestNewTimerStopped(t *testing.T) {
	k := NewKernel(1)
	seq := k.seq
	tm := k.NewTimer(func() { t.Error("a timer never armed fired") })
	if tm.Pending() || tm.Stop() || tm.At() != 0 {
		t.Error("new Timer should be stopped")
	}
	if k.seq != seq {
		t.Errorf("NewTimer consumed %d sequence numbers", k.seq-seq)
	}
	k.Run()
}

// TestStopSameTimeEvent stops a timer re-armed to the current instant,
// where it sorts among same-time FIFO events, and checks its neighbours
// are unaffected.
func TestStopSameTimeEvent(t *testing.T) {
	k := NewKernel(1)
	ran, cancelledRan := false, false
	tm := k.NewTimer(func() { cancelledRan = true })
	k.AfterFunc(5, func() {
		tm.Reset(k.Now())
		k.AfterFunc(0, func() { ran = true })
		if !tm.Stop() {
			t.Error("Stop on a same-time timer should report true")
		}
		if tm.Pending() {
			t.Error("stopped same-time timer still pending")
		}
	})
	k.Run()
	if cancelledRan {
		t.Error("stopped same-time timer ran")
	}
	if !ran {
		t.Error("sibling same-time event did not run")
	}
}

// TestSameTimeBurstOrder: a burst of zero-delay events fires in schedule
// order, after every event already queued for the same instant.
func TestSameTimeBurstOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.AfterFunc(10, func() {
		for i := 0; i < 100; i++ {
			i := i
			k.AfterFunc(0, func() { order = append(order, i) })
		}
	})
	k.AfterFunc(10, func() { order = append(order, -1) }) // older seq: runs before the burst
	k.Run()
	want := make([]int, 0, 101)
	want = append(want, -1)
	for i := 0; i < 100; i++ {
		want = append(want, i)
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want -1 then 0..99", order)
	}
}

// TestPendingEventsCounter: the O(1) pending count agrees with
// Reset/Stop/fire activity, including double Stops and re-arming a
// pending timer.
func TestPendingEventsCounter(t *testing.T) {
	k := NewKernel(1)
	tms := make([]*Timer, 0, 10)
	for i := 0; i < 10; i++ {
		tm := k.NewTimer(func() {})
		tm.Reset(Time(i)) // i==0 sorts with the same-time FIFO
		tms = append(tms, tm)
	}
	if got := k.PendingEvents(); got != 10 {
		t.Fatalf("PendingEvents = %d, want 10", got)
	}
	for i := 0; i < 3; i++ {
		if !tms[i].Stop() {
			t.Fatalf("Stop %d failed", i)
		}
	}
	if got := k.PendingEvents(); got != 7 {
		t.Fatalf("PendingEvents = %d after 3 stops, want 7", got)
	}
	tms[0].Stop() // double Stop must not double-decrement
	tms[5].Reset(50)
	if got := k.PendingEvents(); got != 7 {
		t.Fatalf("PendingEvents = %d after double stop and re-arm, want 7", got)
	}
	k.Run()
	if got := k.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d after drain, want 0", got)
	}
}

// TestScheduleCancelFuzz drives randomized arm/stop interleavings —
// including arming, re-arming and stopping from inside callbacks — against
// a simple model: every armed timer fires exactly once per arming that
// was not stopped or replaced, in (time, arming-order) order.
func TestScheduleCancelFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		k := NewKernel(1)
		type rec struct {
			id        int
			at        Time
			cancelled bool
		}
		var model []*rec
		var timers []*Timer
		var armed []*rec // the arming each timer currently carries
		var fired []int

		cancelRandom := func() {
			if len(timers) == 0 {
				return
			}
			j := rng.Intn(len(timers))
			if timers[j].Stop() {
				armed[j].cancelled = true
			}
		}
		var arm func(j, depth int)
		arm = func(j, depth int) {
			if timers[j].Pending() {
				armed[j].cancelled = true // Reset replaces the pending arming
			}
			r := &rec{id: len(model), at: k.Now() + Time(rng.Intn(50))}
			model = append(model, r)
			armed[j] = r
			timers[j].Reset(r.at)
		}
		newTimer := func(depth int) {
			j := len(timers)
			timers = append(timers, k.NewTimer(func() {
				fired = append(fired, armed[j].id)
				if depth < 3 && rng.Intn(3) == 0 {
					arm(j, depth+1)
				}
				if rng.Intn(3) == 0 {
					cancelRandom()
				}
			}))
			armed = append(armed, nil)
			arm(j, depth)
		}
		for i := 0; i < 40; i++ {
			if i > 0 && rng.Intn(4) == 0 {
				arm(rng.Intn(len(timers)), 0)
			} else {
				newTimer(0)
			}
			if rng.Intn(4) == 0 {
				cancelRandom()
			}
		}
		k.Run()

		type pair struct {
			at Time
			id int
		}
		var pairs []pair
		for _, r := range model {
			if !r.cancelled {
				pairs = append(pairs, pair{r.at, r.id})
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].at != pairs[j].at {
				return pairs[i].at < pairs[j].at
			}
			return pairs[i].id < pairs[j].id
		})
		want := make([]int, len(pairs))
		for i, p := range pairs {
			want[i] = p.id
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("trial %d: fired = %v, want %v", trial, fired, want)
		}
		if k.PendingEvents() != 0 {
			t.Fatalf("trial %d: %d events pending after drain", trial, k.PendingEvents())
		}
	}
}

// TestTimerChurnAllocFree: re-arming, stopping and firing timers, and
// scheduling fire-and-forget events once the heap and FIFO have grown,
// allocate nothing.
func TestTimerChurnAllocFree(t *testing.T) {
	k := NewKernel(1)
	var tms []*Timer
	noop := func() {}
	for i := 0; i < 17; i++ {
		tms = append(tms, k.NewTimer(noop))
	}
	round := func() {
		for i, tm := range tms {
			tm.Reset(k.Now() + Time(i%5))
			if i%3 == 0 {
				tm.Stop()
			}
			k.AfterFunc(Time(i%4), noop)
		}
		k.Run()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%v allocs per round, want 0", n)
	}
}
