package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeRemote answers each point from a map, with optional per-key errors.
type fakeRemote struct {
	calls atomic.Int64
	fail  map[string]error
}

func (f *fakeRemote) Do(_ context.Context, p RemotePoint) ([]byte, error) {
	f.calls.Add(1)
	if err, ok := f.fail[p.Key]; ok {
		return nil, err
	}
	return []byte("body:" + p.Key), nil
}

// remotePlan is the remote execution idiom: a local plan whose points call
// r.Do with the plan's context.
func remotePlan(ctx context.Context, r Remote, n int) *Plan[[]byte] {
	p := NewPlan[[]byte]("t")
	for i := 0; i < n; i++ {
		pt := RemotePoint{Label: fmt.Sprintf("p%d", i), Key: fmt.Sprintf("k%d", i), Path: "/v1/point"}
		p.Add(pt.Label, func() ([]byte, error) { return r.Do(ctx, pt) })
	}
	return p
}

// TestClusterRemoteOrdering: bodies come back keyed by point index at every
// client concurrency — the byte-identical merge invariant.
func TestClusterRemoteOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		r := &fakeRemote{}
		bodies, errs := ExecuteAll(remotePlan(context.Background(), r, 23), Options{Workers: workers})
		for i, b := range bodies {
			if errs[i] != nil {
				t.Fatalf("workers=%d point %d: %v", workers, i, errs[i])
			}
			if want := fmt.Sprintf("body:k%d", i); string(b) != want {
				t.Fatalf("workers=%d point %d = %q, want %q", workers, i, b, want)
			}
		}
		if got := r.calls.Load(); got != 23 {
			t.Fatalf("workers=%d: %d calls, want 23", workers, got)
		}
	}
}

// TestClusterRemoteErrorIsolation: a failing point fills only its own error
// slot; the other bodies survive.
func TestClusterRemoteErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	r := &fakeRemote{fail: map[string]error{"k3": boom}}
	bodies, errs := ExecuteAll(remotePlan(context.Background(), r, 6), Options{Workers: 3})
	for i := range bodies {
		if i == 3 {
			if !errors.Is(errs[i], boom) {
				t.Fatalf("point 3 err = %v, want boom", errs[i])
			}
			continue
		}
		if errs[i] != nil || string(bodies[i]) != fmt.Sprintf("body:k%d", i) {
			t.Fatalf("point %d = %q, %v", i, bodies[i], errs[i])
		}
	}
	if _, err := Execute(remotePlan(context.Background(), r, 6), Options{Workers: 3}); !errors.Is(err, boom) {
		t.Fatalf("Execute err = %v, want boom", err)
	}
}

// TestClusterRemoteCancellation: a cancelled context stamps undispatched
// points with ctx.Err without calling the remote for them.
func TestClusterRemoteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &fakeRemote{}
	_, errs := ExecuteAll(remotePlan(ctx, r, 5), Options{Workers: 1, Ctx: ctx})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("point %d err = %v, want canceled", i, err)
		}
	}
	if got := r.calls.Load(); got != 0 {
		t.Fatalf("remote called %d times after cancel, want 0", got)
	}
}

// memoMap is an in-memory Memo for tests; failPut simulates a journal
// whose disk died mid-sweep.
type memoMap struct {
	mu      sync.Mutex
	m       map[string][]byte
	failPut error
	puts    int
}

func (mm *memoMap) Get(key string) ([]byte, bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	b, ok := mm.m[key]
	return b, ok
}

func (mm *memoMap) Put(key string, body []byte) error {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.failPut != nil {
		return mm.failPut
	}
	if mm.m == nil {
		mm.m = make(map[string][]byte)
	}
	mm.m[key] = body
	mm.puts++
	return nil
}

// TestClusterRemoteMemoResume: a memoized plan executed twice calls the
// remote only for points absent from the memo, and replays recorded bodies
// byte-identically.
func TestClusterRemoteMemoResume(t *testing.T) {
	mm := &memoMap{}
	r := &fakeRemote{}
	wrapped := WithMemo(r, mm)

	first, errs := ExecuteAll(remotePlan(context.Background(), wrapped, 9), Options{Workers: 3})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	if r.calls.Load() != 9 || wrapped.Misses() != 9 || wrapped.Hits() != 0 {
		t.Fatalf("first run: calls=%d misses=%d hits=%d", r.calls.Load(), wrapped.Misses(), wrapped.Hits())
	}

	// "Crash" and resume: a fresh wrapper over the same memo, the remote
	// untouched for replayed points.
	resumed := WithMemo(r, mm)
	second, errs := ExecuteAll(remotePlan(context.Background(), resumed, 9), Options{Workers: 3})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("resume point %d: %v", i, err)
		}
		if string(second[i]) != string(first[i]) {
			t.Fatalf("resume point %d = %q, want %q", i, second[i], first[i])
		}
	}
	if r.calls.Load() != 9 {
		t.Errorf("resume touched the remote: %d calls, want 9", r.calls.Load())
	}
	if resumed.Hits() != 9 || resumed.Misses() != 0 {
		t.Errorf("resume: hits=%d misses=%d, want 9/0", resumed.Hits(), resumed.Misses())
	}
}

// TestClusterRemoteMemoPutFailureFailsPoint: losing the journal fails the
// point — a sweep that silently stops being resumable is worse than one
// that stops.
func TestClusterRemoteMemoPutFailureFailsPoint(t *testing.T) {
	sick := errors.New("disk gone")
	wrapped := WithMemo(&fakeRemote{}, &memoMap{failPut: sick})
	_, err := wrapped.Do(context.Background(), RemotePoint{Key: "k"})
	if !errors.Is(err, sick) {
		t.Fatalf("err = %v, want the Put failure", err)
	}
}

// TestClusterRemoteMemoSkipsFailedPoints: only successful bodies are
// recorded; a failing point stays un-memoized and retries on resume.
func TestClusterRemoteMemoSkipsFailedPoints(t *testing.T) {
	boom := errors.New("boom")
	mm := &memoMap{}
	r := &fakeRemote{fail: map[string]error{"k1": boom}}
	wrapped := WithMemo(r, mm)
	if _, err := wrapped.Do(context.Background(), RemotePoint{Key: "k1"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := mm.Get("k1"); ok {
		t.Fatal("failed point was memoized")
	}
	// The remote recovers; the point completes and is recorded.
	delete(r.fail, "k1")
	if _, err := wrapped.Do(context.Background(), RemotePoint{Key: "k1"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := mm.Get("k1"); !ok {
		t.Fatal("recovered point not memoized")
	}
}
