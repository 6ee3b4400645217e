// Package engine is the parallel, deterministic run engine behind every
// experiment driver. A Plan enumerates independent simulation Points (one
// seeded, deterministic run each — a figure cell, a sweep configuration, a
// fault-study rung); Execute fans the points out over a bounded worker pool
// and collects results keyed by point index.
//
// The contract that makes parallelism free: every point is an independent
// deterministic simulation, so the result slice — and therefore any table
// or CSV rendered from it — is byte-identical for every worker count.
// Workers=1 reproduces the old sequential driver loops exactly; any other
// count produces the same slice in the same order, only faster.
//
// Panics inside a point are isolated: they surface as that point's error
// (with the goroutine's stack) instead of crashing the whole sweep, and
// when several points fail the error of the lowest-indexed point is
// reported — the same one a sequential loop would have hit first.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Point is one independent unit of a sweep: a label for diagnostics and a
// closure that computes the point's result. The closure must not depend on
// other points — the engine may run it on any worker at any time.
type Point[T any] struct {
	Label string
	Run   func() (T, error)
}

// Plan is an ordered list of points. Order is significant: results are
// collected by point index, so the plan's order is the output order
// regardless of execution interleaving.
type Plan[T any] struct {
	Name   string
	Points []Point[T]
}

// NewPlan creates an empty plan. The name appears in panic diagnostics.
func NewPlan[T any](name string) *Plan[T] { return &Plan[T]{Name: name} }

// Add appends a point and returns its index.
func (p *Plan[T]) Add(label string, run func() (T, error)) int {
	p.Points = append(p.Points, Point[T]{Label: label, Run: run})
	return len(p.Points) - 1
}

// Options tunes plan execution.
type Options struct {
	// Workers bounds how many points run concurrently; <= 0 means
	// runtime.NumCPU(). The worker count never changes results, only
	// wall-clock time.
	Workers int
	// Ctx, when non-nil, cancels the plan: once it is done no further
	// points are dispatched and every undispatched point's error slot is
	// filled with the context's error. Points already running finish
	// normally (a simulation cannot be interrupted mid-run). It is the only
	// way to cancel a plan, so callers that only hold an Options value —
	// the experiment drivers — inherit cancellation unchanged.
	Ctx context.Context
}

// Pick resolves a variadic options list (the idiom drivers use to stay
// backward compatible): the first element if present, else the defaults.
func Pick(opts ...Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// PointError is the error a panicking point is converted into.
type PointError struct {
	Plan  string
	Index int
	Label string
	Err   error
}

func (e *PointError) Error() string {
	return fmt.Sprintf("engine: plan %q point %d (%s): %v", e.Plan, e.Index, e.Label, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// runPoint executes one point, converting a panic into its error slot.
func runPoint[T any](p *Plan[T], i int, results []T, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			errs[i] = &PointError{
				Plan:  p.Name,
				Index: i,
				Label: p.Points[i].Label,
				Err:   fmt.Errorf("panic: %v\n%s", r, debug.Stack()),
			}
		}
	}()
	results[i], errs[i] = p.Points[i].Run()
}

// ExecuteAll runs every point and returns the results and errors, both
// keyed by point index. Unlike Execute it never discards later results
// because an earlier point failed — callers that want best-effort sweeps
// (cmd/sweep) report per-point errors and keep the good rows.
//
// Once Options.Ctx is done, no further points are dispatched — their error
// slots are filled with ctx.Err() (context.Canceled or
// context.DeadlineExceeded) — and the call returns as soon as the points
// already in flight finish. No goroutines outlive the call.
func ExecuteAll[T any](p *Plan[T], opts ...Options) ([]T, []error) {
	o := Pick(opts...)
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(p.Points)
	results := make([]T, n)
	errs := make([]error, n)
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := range p.Points {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			runPoint(p, i, results, errs)
		}
		return results, errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Claiming before the cancellation check keeps the
				// bookkeeping simple: after cancel the workers race
				// through the remaining indices, stamping each with
				// ctx.Err() without running it.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				runPoint(p, i, results, errs)
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// Execute runs the plan and returns the results keyed by point index. If
// any points failed, the error of the lowest-indexed failure is returned —
// exactly the error a sequential loop over the same points would have
// returned first, so error behaviour is deterministic too.
func Execute[T any](p *Plan[T], opts ...Options) ([]T, error) {
	results, errs := ExecuteAll(p, opts...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
