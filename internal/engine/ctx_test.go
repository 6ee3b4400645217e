package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestExecuteCancelStopsDispatch: after cancel, no further points are
// dispatched, every undispatched point's error is context.Canceled, the
// points already in flight finish normally, and the call returns promptly.
func TestExecuteCancelStopsDispatch(t *testing.T) {
	const n, workers = 64, 4
	ctx, cancel := context.WithCancel(context.Background())

	started := make(chan int, n)
	release := make(chan struct{})
	var ran atomic.Int64
	p := NewPlan[int]("cancel")
	for i := 0; i < n; i++ {
		i := i
		p.Add(fmt.Sprintf("p%d", i), func() (int, error) {
			ran.Add(1)
			started <- i
			<-release // hold the worker until the test has cancelled
			return i, nil
		})
	}

	done := make(chan struct{})
	var results []int
	var errs []error
	go func() {
		results, errs = ExecuteAll(p, Options{Workers: workers, Ctx: ctx})
		close(done)
	}()

	// Wait for every worker to be mid-point, then cancel and release.
	for i := 0; i < workers; i++ {
		<-started
	}
	cancel()
	close(release)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ExecuteAll did not return after cancel")
	}

	if got := ran.Load(); got != workers {
		t.Fatalf("ran %d points, want exactly the %d in flight at cancel", got, workers)
	}
	var completed, cancelled int
	for i := range errs {
		switch {
		case errs[i] == nil:
			completed++
			if results[i] != i {
				t.Errorf("point %d: result %d, want %d", i, results[i], i)
			}
		case errors.Is(errs[i], context.Canceled):
			cancelled++
			if results[i] != 0 {
				t.Errorf("cancelled point %d has a result %d", i, results[i])
			}
		default:
			t.Errorf("point %d: unexpected error %v", i, errs[i])
		}
	}
	if completed != workers || cancelled != n-workers {
		t.Errorf("completed=%d cancelled=%d, want %d and %d", completed, cancelled, workers, n-workers)
	}
}

// TestExecuteSequentialCancel covers the workers<=1 path: a context
// cancelled mid-plan stamps every remaining point with the context error.
func TestExecuteSequentialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPlan[int]("seq-cancel")
	for i := 0; i < 8; i++ {
		i := i
		p.Add(fmt.Sprintf("p%d", i), func() (int, error) {
			if i == 2 {
				cancel() // points 3..7 must not run
			}
			return i, nil
		})
	}
	results, errs := ExecuteAll(p, Options{Workers: 1, Ctx: ctx})
	for i := 0; i <= 2; i++ {
		if errs[i] != nil || results[i] != i {
			t.Errorf("point %d: got (%d, %v), want (%d, nil)", i, results[i], errs[i], i)
		}
	}
	for i := 3; i < 8; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("point %d: err %v, want context.Canceled", i, errs[i])
		}
	}
}

// TestExecuteCancelNoGoroutineLeak: a cancelled plan leaves no workers
// behind.
func TestExecuteCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already-cancelled context: nothing should run
		p := buildPlan(32)
		_, errs := ExecuteAll(p, Options{Workers: 8, Ctx: ctx})
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d point %d: err %v, want context.Canceled", round, i, err)
			}
		}
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after cancelled plans", before, runtime.NumGoroutine())
}

// TestOptionsCtxPlumbing: drivers that only pass Options inherit
// cancellation through Options.Ctx, and Execute surfaces the first
// undispatched point's context error.
func TestOptionsCtxPlumbing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := ExecuteAll(buildPlan(4), Options{Workers: 2, Ctx: ctx})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("point %d: err %v, want context.Canceled", i, err)
		}
	}
	if _, err := Execute(buildPlan(4), Options{Workers: 2, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute err %v, want context.Canceled", err)
	}
}
