// Package trace provides optional structured event tracing for simulation
// runs: job lifecycle, message movement, and any other component that wants
// to narrate what it does. Tracing is off unless a Tracer is installed.
// Call sites check the tracer for nil before calling Emit, so when tracing
// is off an event costs one comparison and its arguments are never built.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Event is one traced occurrence.
type Event struct {
	At sim.Time
	// Cat is the event category: "job", "msg", "load", ...
	Cat string
	// Subject identifies the actor ("job 3", "msg B n0.b2->n5.b2").
	Subject string
	// Detail is free-form context.
	Detail string
}

// String renders one line.
func (e Event) String() string {
	return fmt.Sprintf("%12s [%-4s] %s %s", e.At, e.Cat, e.Subject, e.Detail)
}

// Tracer receives events. Implementations must be cheap; they run inline in
// the simulation.
type Tracer interface {
	Emit(Event)
}

// Log is a bounded in-memory tracer. The zero value is unbounded; set Max
// to cap retention (oldest events are dropped first).
type Log struct {
	Max    int
	events []Event
	// Dropped counts events discarded due to Max.
	Dropped int64
}

// Emit implements Tracer.
func (l *Log) Emit(e Event) {
	if l.Max > 0 && len(l.events) >= l.Max {
		// Drop the oldest half in one slide to amortize.
		keep := l.Max / 2
		l.Dropped += int64(len(l.events) - keep)
		copy(l.events, l.events[len(l.events)-keep:])
		l.events = l.events[:keep]
	}
	l.events = append(l.events, e)
}

// Events returns the retained events in emission order. The slice is owned
// by the log.
func (l *Log) Events() []Event { return l.events }

// Len reports the number of retained events.
func (l *Log) Len() int { return len(l.events) }

// Filter returns the retained events of one category.
func (l *Log) Filter(cat string) []Event {
	var out []Event
	for _, e := range l.events {
		if e.Cat == cat {
			out = append(out, e)
		}
	}
	return out
}

// WriteTo dumps the retained events one per line.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range l.events {
		n, err := fmt.Fprintln(w, e.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Emit is a convenience helper: a no-op when tr is nil. Guard the call with
// tr != nil anyway whenever the arguments are formatted.
func Emit(tr Tracer, at sim.Time, cat, subject, detail string) {
	if tr == nil {
		return
	}
	tr.Emit(Event{At: at, Cat: cat, Subject: subject, Detail: detail})
}
