//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Aborted is the panic value a process unwinds with after Abort. Spawned
// bodies that support cancellation recover it, run their cleanup, and return;
// an unrecovered Aborted propagates out of the kernel loop like any other
// process panic, so aborting a process that does not expect it fails loudly.
type Aborted struct{}

func (Aborted) Error() string { return "sim: process aborted" }

// killSentinel is panicked inside a parked process during Shutdown so that
// deferred cleanup runs and the body returns.
type killSentinel struct{}

// coro is a reusable process coroutine: an iter.Pull loop that runs one
// process body after another. The kernel resumes it with next and the
// body hands control back with yield, a direct switch with no channel and
// no scheduler round trip. A body panic therefore surfaces from next in
// the kernel loop by itself, and stop makes a parked yield return false,
// which Park turns into the kill unwind. Between bodies a coroutine waits
// in the kernel's idle pool, so a run creates about as many coroutines as
// it has processes alive at once, not one per process.
type coro struct {
	k     *Kernel
	p     *Proc // the process it runs; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// coroutine takes an idle coroutine from the pool, or creates one.
func (k *Kernel) coroutine() *coro {
	if n := len(k.idle); n > 0 {
		c := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		return c
	}
	c := &coro{k: k}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop runs bodies until a kill, a body panic or a release ends it.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.p.run() {
		c.p = nil
		c.k.idle = append(c.k.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// releaseIdle ends the pooled coroutines, so a kernel holds no goroutine
// for a finished process once its run returns.
func (k *Kernel) releaseIdle() {
	for len(k.idle) > 0 {
		n := len(k.idle)
		c := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		c.stop()
	}
}

// Proc is a simulated process: a Go function running on a coroutine under
// the kernel's strict hand-off discipline. A Proc may park itself (Park,
// Sleep) and be woken by kernel-context code (Wake). Blocking primitives
// built on Park/Wake — CPU bursts, message receives, memory allocation —
// live in higher-level packages.
type Proc struct {
	k    *Kernel
	id   int
	name string
	body func(*Proc)

	// co runs the body; nil until the body first runs.
	co *coro
	// startParked is the SpawnParked reason, cleared at the start event.
	startParked string
	// resume is the start and wake event's callback, bound once at Spawn
	// so Wake schedules without allocating.
	resume func()
	// sleep is the process's reusable Sleep record; nil while a sleep's
	// timer still holds it.
	sleep *sleeper

	parked bool
	// parkReason or, for lazily formatted reasons, parkWhy describes the
	// current park for Kernel.ParkedProcs.
	parkReason string
	parkWhy    fmt.Stringer
	permit     bool // a Wake arrived while the process was running
	aborted    bool
	finished   bool
}

// Spawn creates a simulated process and schedules its body to start at the
// current simulated time. The body runs in kernel context under the hand-off
// discipline: it may call any kernel API, park itself, and wake other procs.
// Spawn may be called from kernel context or before Run.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	if k.stopped {
		panic("sim: Spawn after Shutdown")
	}
	k.nextPID++
	p := &Proc{k: k, id: k.nextPID, name: name, body: body}
	p.resume = p.step
	k.procs[p] = struct{}{}
	k.AfterFunc(0, p.resume)
	return p
}

// SpawnParked is Spawn for a daemon whose body opens with a wait: at its
// start event the process parks with reason, exactly as if its body began
// with Park(reason), and the body first runs when the process is woken. A
// Wake or Abort that lands before the start event lets the body run at
// once, as a permit would. The body must do nothing observable before its
// first wait, since it starts from the top instead of resuming there.
// Until the body runs the process holds no coroutine, so a daemon that is
// never woken costs none.
func (k *Kernel) SpawnParked(name, reason string, body func(p *Proc)) *Proc {
	p := k.Spawn(name, body)
	p.startParked = reason
	return p
}

// step is the start and wake event: it runs the body up to its next park,
// its return, or its panic. A process takes its coroutine when its body
// first runs, so one that never runs holds none.
func (p *Proc) step() {
	if p.finished {
		return
	}
	if reason := p.startParked; reason != "" {
		p.startParked = ""
		if !p.permit && !p.aborted {
			p.parked = true
			p.parkReason = reason
			return
		}
		p.permit = false
	}
	if p.co == nil {
		p.co = p.k.coroutine()
		p.co.p = p
	}
	p.co.next()
}

// run executes the body on its coroutine and reports whether the body
// returned, leaving the coroutine free for another process. A kill unwind
// reports false, ending the coroutine; any other panic is re-raised with
// the process name, and iter.Pull carries it out of next into the kernel
// loop.
func (p *Proc) run() (returned bool) {
	defer func() {
		r := recover()
		p.finished = true
		p.parked = false
		p.body, p.co = nil, nil
		delete(p.k.procs, p)
		if r != nil {
			if _, isKill := r.(killSentinel); !isKill {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
	}()
	p.body(p)
	return true
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the kernel-unique process id (assigned in spawn order).
func (p *Proc) ID() int { return p.id }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Park blocks the process until another piece of kernel-context code calls
// Wake on it. If a Wake was delivered while the process was running (a
// "permit"), Park consumes it and returns immediately. The reason string is
// reported by Kernel.ParkedProcs for stall diagnosis.
//
// Park must only be called by the process itself.
func (p *Proc) Park(reason string) { p.park(reason, nil) }

// ParkFor is Park with a lazily formatted reason: why.String() runs only
// when Kernel.ParkedProcs reports the process, so a hot wait loop can name
// what it waits for without building a string per park. why must stay
// valid until the process is woken.
func (p *Proc) ParkFor(why fmt.Stringer) { p.park("", why) }

func (p *Proc) park(reason string, why fmt.Stringer) {
	if p.aborted {
		panic(Aborted{})
	}
	if p.permit {
		p.permit = false
		return
	}
	p.parked = true
	p.parkReason, p.parkWhy = reason, why
	if !p.co.yield(struct{}{}) {
		panic(killSentinel{})
	}
	if p.aborted {
		panic(Aborted{})
	}
}

// reason renders the current park reason.
func (p *Proc) reason() string {
	if p.parkWhy != nil {
		return p.parkWhy.String()
	}
	return p.parkReason
}

// Abort requests the process to unwind with an Aborted panic at its next
// park point (or immediately on resume if it is parked now). Blocking
// primitives deregister their wait state during the unwind, so an aborted
// process leaves no dangling waiters. Abort must be called from kernel
// context; aborting a finished process is a no-op.
func (p *Proc) Abort() {
	if p.finished || p.aborted {
		return
	}
	p.aborted = true
	if p.parked {
		p.Wake()
	}
}

// Aborting reports whether an abort has been requested for the process.
func (p *Proc) Aborting() bool { return p.aborted }

// Wake makes a parked process runnable again. The process resumes via a
// kernel event at the current simulated time (after already-queued events).
// If the process is not parked, the wake is remembered as a permit so the
// next Park returns immediately. A Wake arriving between a previous Wake and
// the resume event also becomes a permit, so Park can return spuriously;
// callers must re-check their wait condition in a loop around Park.
//
// Wake must be called from kernel context (an event callback or another
// process body), never from outside the simulation.
func (p *Proc) Wake() {
	if p.finished {
		return
	}
	if !p.parked {
		p.permit = true
		return
	}
	p.parked = false
	p.parkReason, p.parkWhy = "", nil
	p.k.AfterFunc(0, p.resume)
}

// sleeper is one Sleep's timer state and its park reason.
type sleeper struct {
	p    *Proc
	d    Time
	done bool
	fire func()
}

func (s *sleeper) wake() {
	s.done = true
	s.p.Wake()
}

func (s *sleeper) String() string { return "sleep " + s.d.String() }

// Sleep suspends the process for d microseconds of simulated time. Even a
// zero-length sleep yields through the event queue so other events scheduled
// for the current time get to run. Sleep is robust against spurious wakes
// (Wakes aimed at a different wait of the same process): it re-parks until
// its own timer has fired.
func (p *Proc) Sleep(d Time) {
	s := p.sleep
	if s == nil {
		s = &sleeper{p: p}
		s.fire = s.wake
	}
	// The timer owns the record until it fires. A sleep that unwinds
	// early (abort, kill) leaves it to its timer, and the next Sleep
	// starts a fresh one.
	p.sleep = nil
	s.d, s.done = d, false
	p.k.AfterFunc(d, s.fire)
	for !s.done {
		p.ParkFor(s)
	}
	p.sleep = s
}

// Finished reports whether the process body has returned.
func (p *Proc) Finished() bool { return p.finished }
