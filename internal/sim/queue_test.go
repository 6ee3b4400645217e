package sim

import (
	"math/rand"
	"testing"
)

// TestEventQueueOracle drives random AtFunc/AfterFunc scheduling and
// NewTimer, Reset, Stop and Pending calls, from outside the run and from
// inside firing events, against a reference model: every pending arming
// fires once, at its (clamped) time, and is the (at, arming order) minimum
// of the pending armings when it fires. Times are drawn from a narrow
// window, so equal timestamps, timers Reset to now against same-time FIFO
// events, and heap events at the FIFO's instant are common; some times are
// in the past (clamped to now). Firing timers re-arm or stop themselves.
// Each trial starts with 1, 3, 16, 17 or 33 timers, so the timer tree has
// padding leaves, and creates more mid-run, which rebuilds the tree while
// a fired timer's path is not yet replayed.
func TestEventQueueOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := []int{1, 3, 16, 17, 33}
	for trial := 0; trial < 400; trial++ {
		k := NewKernel(1)
		type rec struct {
			at               Time
			seq              int
			cancelled, fired bool
		}
		type timer struct {
			tm  *Timer
			cur *rec // the current arming, nil before the first
		}
		var recs []*rec
		var timers []*timer
		live := func(r *rec) bool { return r != nil && !r.cancelled && !r.fired }
		check := func() {
			n := 0
			var first *rec
			for _, r := range recs {
				if live(r) {
					n++
					if first == nil || r.at < first.at {
						first = r
					}
				}
			}
			if k.PendingEvents() != n {
				t.Fatalf("trial %d: PendingEvents() = %d, want %d", trial, k.PendingEvents(), n)
			}
			at, ok := k.NextEventAt()
			if ok != (first != nil) || first != nil && at != first.at {
				t.Fatalf("trial %d: NextEventAt() = %v, %v, want %v", trial, at, ok, first)
			}
			for i, tm := range timers {
				want := live(tm.cur)
				if got := tm.tm.Pending(); got != want {
					t.Fatalf("trial %d: timer %d Pending() = %v, want %v", trial, i, got, want)
				}
				if want && tm.tm.At() != tm.cur.at || !want && tm.tm.At() != 0 {
					t.Fatalf("trial %d: timer %d At() = %v, want %v", trial, i, tm.tm.At(), tm.cur)
				}
			}
		}
		pickAt := func() (at, clamped Time) {
			now := k.Now()
			switch rng.Intn(4) {
			case 0:
				at = now // the same-time FIFO when inside an event
			case 1:
				at = now - Time(1+rng.Intn(5)) // past: clamped to now
			default:
				at = now + Time(rng.Intn(6))
			}
			return at, max(at, now)
		}
		newRec := func(at Time) *rec {
			r := &rec{at: at, seq: len(recs)}
			recs = append(recs, r)
			return r
		}
		fire := func(r *rec) {
			if !live(r) {
				t.Fatalf("trial %d: arming %d fired but is cancelled=%v fired=%v", trial, r.seq, r.cancelled, r.fired)
			}
			if k.Now() != r.at {
				t.Fatalf("trial %d: arming %d fired at %v, want %v", trial, r.seq, k.Now(), r.at)
			}
			for _, o := range recs {
				if live(o) && o != r && (o.at < r.at || o.at == r.at && o.seq < r.seq) {
					t.Fatalf("trial %d: arming %d (%v) fired before arming %d (%v)", trial, r.seq, r.at, o.seq, o.at)
				}
			}
			r.fired = true
		}
		var op func()
		reset := func(tm *timer) {
			at, clamped := pickAt()
			if live(tm.cur) {
				tm.cur.cancelled = true
			}
			tm.cur = newRec(clamped)
			tm.tm.Reset(at)
		}
		stop := func(tm *timer) {
			want := live(tm.cur)
			if got := tm.tm.Stop(); got != want {
				t.Fatalf("trial %d: Stop() = %v, want %v", trial, got, want)
			}
			if want {
				tm.cur.cancelled = true
			}
		}
		newTimer := func() {
			tm := &timer{}
			tm.tm = k.NewTimer(func() {
				fire(tm.cur)
				switch rng.Intn(4) {
				case 0:
					reset(tm) // re-arm inside its own callback
				case 1:
					stop(tm) // not pending: Stop reports false
				}
				for i := rng.Intn(3); i > 0; i-- {
					op()
				}
				check()
			})
			timers = append(timers, tm)
		}
		schedule := func() {
			at, clamped := pickAt()
			r := newRec(clamped)
			fn := func() {
				fire(r)
				for i := rng.Intn(3); i > 0; i-- {
					op()
				}
				check()
			}
			if rng.Intn(2) == 0 {
				k.AfterFunc(at-k.Now(), fn)
			} else {
				k.AtFunc(at, fn)
			}
		}
		op = func() {
			switch n := rng.Intn(10); {
			case n < 3:
				schedule()
			case n < 6:
				reset(timers[rng.Intn(len(timers))])
			case n < 9:
				stop(timers[rng.Intn(len(timers))])
			case len(timers) < 40:
				newTimer()
			}
		}
		for i := counts[trial%len(counts)]; i > 0; i-- {
			newTimer()
		}
		for i := 0; i < 30; i++ {
			op()
		}
		check()
		// Alternate bounded runs with outside scheduling, so events pushed
		// at the stop time meet heap events already waiting there.
		for k.PendingEvents() > 0 {
			k.RunUntil(k.Now() + Time(rng.Intn(4)))
			check()
			for i := rng.Intn(4); i > 0; i-- {
				op()
			}
		}
		for i, r := range recs {
			if !r.cancelled && !r.fired {
				t.Fatalf("trial %d: arming %d never fired", trial, i)
			}
		}
	}
}
