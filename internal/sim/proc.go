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
// the kernel's strict hand-off discipline, or a stackless stepper (see
// SpawnStepper). A Proc may park itself (Park, Wait, Sleep) and be woken by
// kernel-context code (Wake). Blocking primitives built on Wait/Wake — CPU
// bursts, message receives, memory allocation — live in higher-level
// packages.
type Proc struct {
	k    *Kernel
	id   int
	name string
	// label, when set, names the process instead of name and is formatted
	// only when the name is read.
	label fmt.Stringer
	body  func(*Proc)
	// stepper is a stackless process's step function; nil for a body on a
	// coroutine.
	stepper func(*Proc)

	// co runs the body; nil until the body first runs.
	co *coro
	// resume is the start and wake event's callback, bound once at spawn
	// so Wake schedules without allocating.
	resume func()
	// sleep is the process's Sleep record, reused once its timer fired.
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
	return k.spawn(name, nil, body, nil)
}

// SpawnNamed is Spawn with a lazily formatted name: name.String() runs
// only when the name is read (ParkedProcs, panics, Name), so a hot spawn
// path builds no string. name must stay valid for the process's life.
func (k *Kernel) SpawnNamed(name fmt.Stringer, body func(p *Proc)) *Proc {
	return k.spawn("", name, body, nil)
}

// SpawnStepper creates a stackless process. Its start event and every wake
// event call step in kernel context, with no coroutine switch. step runs
// the process from where its last wait left off and must return instead of
// blocking: it waits with Wait and AwaitSleep, which report true when the
// process parked and step must return, and false when a permit let it go
// on (re-check the wait condition and wait again). A stepper keeps its
// position in its own fields. It has an id, a name, park reasons and
// permits like any process, so ParkedProcs and Diagnose report it the same
// way; Park panics on it, and Shutdown drops it, as it has no stack to
// unwind. A panic in step propagates out of the kernel loop as is.
func (k *Kernel) SpawnStepper(name fmt.Stringer, step func(p *Proc)) *Proc {
	return k.spawn("", name, nil, step)
}

func (k *Kernel) spawn(name string, label fmt.Stringer, body, stepper func(*Proc)) *Proc {
	if k.stopped {
		panic("sim: Spawn after Shutdown")
	}
	k.nextPID++
	p := &Proc{k: k, id: k.nextPID, name: name, label: label, body: body, stepper: stepper}
	p.resume = p.step
	k.procs[p] = struct{}{}
	k.AfterFunc(0, p.resume)
	return p
}

// step is the start and wake event. A stepper runs its step function; a
// coroutine process runs its body up to its next park, its return, or its
// panic, taking its coroutine when the body first runs.
func (p *Proc) step() {
	if p.finished {
		return
	}
	if p.stepper != nil {
		p.stepper(p)
		return
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
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r))
			}
		}
	}()
	p.body(p)
	return true
}

// Name returns the process name given at spawn.
func (p *Proc) Name() string {
	if p.label != nil {
		return p.label.String()
	}
	return p.name
}

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
// Park must only be called by the process itself, and never by a stepper.
func (p *Proc) Park(reason string) {
	if p.stepper != nil {
		panic(fmt.Sprintf("sim: Park on stepper %q: a stepper waits with Wait and returns", p.Name()))
	}
	p.wait(reason, nil)
}

// Wait is the wait primitive both kinds of process share, with a lazily
// formatted reason: why.String() runs only when Kernel.ParkedProcs reports
// the process, so a hot wait loop names what it waits for without building
// a string. why must stay valid until the process is woken. A permit is
// consumed and Wait returns false, as Park returns at once. Otherwise a
// coroutine process blocks until woken and Wait returns false; a stepper
// is marked parked and Wait returns true, and its step must return. Either
// way the caller re-checks its condition after a false return, so one
// loop, `for !ready { if p.Wait(why) { return } }`, serves both.
func (p *Proc) Wait(why fmt.Stringer) bool { return p.wait("", why) }

func (p *Proc) wait(reason string, why fmt.Stringer) bool {
	if p.aborted {
		panic(Aborted{})
	}
	if p.permit {
		p.permit = false
		return false
	}
	p.parked = true
	p.parkReason, p.parkWhy = reason, why
	if p.stepper != nil {
		return true
	}
	if !p.co.yield(struct{}{}) {
		panic(killSentinel{})
	}
	if p.aborted {
		panic(Aborted{})
	}
	return false
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
	p.StartSleep(d)
	p.AwaitSleep()
}

// StartSleep arms the timer of a sleep of d without waiting for it;
// AwaitSleep waits. Sleep is the two in a row.
func (p *Proc) StartSleep(d Time) {
	s := p.sleep
	if s == nil || !s.done {
		// The first sleep, or one that unwound early (abort, kill): its
		// timer still owns that record, so start a fresh one.
		s = &sleeper{p: p}
		s.fire = s.wake
		p.sleep = s
	}
	s.d, s.done = d, false
	p.k.AfterFunc(d, s.fire)
}

// AwaitSleep waits until the timer armed by StartSleep has fired. Like
// Wait, it reports whether a stepper parked and must return.
func (p *Proc) AwaitSleep() bool {
	s := p.sleep
	for !s.done {
		if p.Wait(s) {
			return true
		}
	}
	return false
}

// Finished reports whether the process body has returned.
func (p *Proc) Finished() bool { return p.finished }
