// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in (time, sequence)
// order. Simulated processes are ordinary Go functions run as coroutines, and
// the kernel enforces a strict hand-off discipline: at any instant at most one
// process executes, and every context switch goes through the kernel.
// Together with FIFO tie-breaking in the event queue this makes every
// simulation bit-reproducible for a given configuration and seed.
//
// The package is the foundation for the Transputer multicomputer model: nodes,
// links, memory managers, routers and schedulers are all built from kernel
// events and parked/woken processes.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured in microseconds since the start
// of the simulation. Durations are also expressed as Time values (a length in
// microseconds); the context makes clear which is meant.
type Time int64

// Common durations in simulated microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = 1<<63 - 1

// String renders the time in a human-friendly unit.
func (t Time) String() string {
	switch {
	case t < Millisecond:
		return fmt.Sprintf("%dµs", int64(t))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Duration converts a simulated duration to a time.Duration for interop with
// formatting helpers. Simulated microseconds map to real microseconds.
func (t Time) Duration() time.Duration {
	return time.Duration(t) * time.Microsecond
}

// Seconds reports the time as a floating-point number of simulated seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports the time as a floating-point number of simulated
// milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// FromDuration converts a wall-clock style duration to simulated Time.
func FromDuration(d time.Duration) Time { return Time(d / time.Microsecond) }
