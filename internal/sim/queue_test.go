package sim

import (
	"math/rand"
	"testing"
)

// TestEventQueueOracle drives random At/After/AfterFunc/AtFunc, Stop and
// Pending sequences, from outside the run and from inside firing events,
// against a reference model: every live event fires once, at its (clamped)
// time, and is the (at, schedule order) minimum of the live events when it
// fires. Times are drawn from a narrow window, so equal timestamps and
// ties between heap events and same-time FIFO events are common; some are
// in the past (clamped to now); Stop hits FIFO-resident events; and handles
// of fired events are kept and re-checked after their records were recycled
// for newer events.
func TestEventQueueOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k := NewKernel(1)
		type rec struct {
			at               Time
			seq              int
			h                Timer
			handle           bool
			cancelled, fired bool
		}
		var recs []*rec
		live := func(r *rec) bool { return !r.cancelled && !r.fired }
		check := func() {
			n := 0
			for i, r := range recs {
				if live(r) {
					n++
				}
				if !r.handle {
					continue
				}
				if got := r.h.Pending(); got != live(r) {
					t.Fatalf("trial %d: event %d Pending() = %v, want %v", trial, i, got, live(r))
				}
				if live(r) && r.h.At() != r.at {
					t.Fatalf("trial %d: event %d At() = %v, want %v", trial, i, r.h.At(), r.at)
				}
			}
			if k.PendingEvents() != n {
				t.Fatalf("trial %d: PendingEvents() = %d, want %d", trial, k.PendingEvents(), n)
			}
		}
		var op func()
		fire := func(r *rec) {
			if !live(r) {
				t.Fatalf("trial %d: event %d fired but is cancelled=%v fired=%v", trial, r.seq, r.cancelled, r.fired)
			}
			if k.Now() != r.at {
				t.Fatalf("trial %d: event %d fired at %v, want %v", trial, r.seq, k.Now(), r.at)
			}
			for _, o := range recs {
				if live(o) && o != r && (o.at < r.at || o.at == r.at && o.seq < r.seq) {
					t.Fatalf("trial %d: event %d (%v) fired before event %d (%v)", trial, r.seq, r.at, o.seq, o.at)
				}
			}
			r.fired = true
			for i := rng.Intn(3); i > 0; i-- {
				op()
			}
			check()
		}
		schedule := func() {
			r := &rec{seq: len(recs)}
			now := k.Now()
			var at Time
			switch rng.Intn(4) {
			case 0:
				at = now // the same-time FIFO when inside an event
			case 1:
				at = now - Time(1+rng.Intn(5)) // past: clamped to now
			default:
				at = now + Time(rng.Intn(6))
			}
			r.at = max(at, now)
			fn := func() { fire(r) }
			switch rng.Intn(4) {
			case 0:
				r.h, r.handle = k.At(at, fn), true
			case 1:
				r.h, r.handle = k.After(at-now, fn), true
			case 2:
				k.AfterFunc(at-now, fn)
			default:
				k.AtFunc(at, fn)
			}
			recs = append(recs, r)
		}
		stop := func() {
			if len(recs) == 0 {
				return
			}
			r := recs[rng.Intn(len(recs))]
			if !r.handle {
				return
			}
			want := live(r)
			if got := r.h.Stop(); got != want {
				t.Fatalf("trial %d: event %d Stop() = %v, want %v", trial, r.seq, got, want)
			}
			r.cancelled = r.cancelled || want
		}
		op = func() {
			if rng.Intn(3) == 0 {
				stop()
			} else {
				schedule()
			}
		}
		for i := 0; i < 30; i++ {
			op()
		}
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
				t.Fatalf("trial %d: event %d never fired", trial, i)
			}
		}
	}
}
