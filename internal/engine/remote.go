package engine

import (
	"context"
	"sync/atomic"
)

// Remote execution is a local Plan[[]byte] whose points call Remote.Do: the
// same plan/point/merge contract as any other plan, with the point's work
// done somewhere else. A RemotePoint carries no closure — it is pure data
// (an affinity key, an endpoint path, an opaque request body) that a Remote
// implementation ships to another machine. The cluster coordinator
// (internal/cluster) is the production Remote: it routes each point to a
// worker by rendezvous hashing on Key so repeated sweeps hit the worker
// that already cached the answer.
//
// The merge guarantee carries over unchanged: results are collected by point
// index, so the output of a remote plan is byte-identical at any client
// concurrency (Options.Workers bounds in-flight requests, not simulations)
// and any fleet size — routing, retries and hedging change which machine
// computes a byte slice, never the bytes or their order. Cancellation comes
// from Options.Ctx like any plan; pass the same context to Do.

// RemotePoint is one unit of remote work.
type RemotePoint struct {
	// Label appears in diagnostics, like Point.Label.
	Label string
	// Key is the point's content address (core.Config.Hash or the serve
	// request key). Remotes route on it: equal keys land on the same
	// worker while the fleet is stable, which is what makes worker-side
	// result caches effective across repeated and overlapping sweeps.
	Key string
	// Path is the worker endpoint the request body is for
	// (e.g. "/v1/point" or "/v1/run").
	Path string
	// Body is the opaque request payload.
	Body []byte
}

// Remote runs one keyed request on another machine and returns the response
// body. Implementations own routing, retry and hedging; they must return
// the response bytes unmodified, because callers merge them positionally
// into byte-identical documents.
type Remote interface {
	Do(ctx context.Context, p RemotePoint) ([]byte, error)
}

// Memo is a durable (or at least persistent-enough) map from a point's
// content address to the response bytes once served for it. Because
// remote points are content-addressed and workers are deterministic, a
// memoized body is not a stale approximation — it is the byte-identical
// answer, forever. The cluster journal (internal/cluster.Journal) is the
// production Memo: an fsync'd append-only log that makes remote plans
// resumable across a client or coordinator crash.
type Memo interface {
	// Get returns the recorded body for a key.
	Get(key string) ([]byte, bool)
	// Put records a completed point. Implementations define durability;
	// an error fails the point — a sweep that silently loses its journal
	// is worse than one that stops.
	Put(key string, body []byte) error
}

// WithMemo wraps a Remote so completed points are recorded in, and
// replayed from, the memo: re-executing a plan after a crash skips every
// already-completed point byte-identically and runs only the remainder.
// Hits and Misses on the returned wrapper count the split.
func WithMemo(r Remote, m Memo) *MemoRemote {
	return &MemoRemote{remote: r, memo: m}
}

// MemoRemote is a Remote with memoized (resumable) execution.
type MemoRemote struct {
	remote Remote
	memo   Memo

	hits   atomic.Int64
	misses atomic.Int64
}

// Do answers from the memo when the point has already completed, and
// records the body (durably, per the Memo) before reporting success
// otherwise — so a point acknowledged to the caller is never recomputed
// after a resume.
func (m *MemoRemote) Do(ctx context.Context, p RemotePoint) ([]byte, error) {
	if body, ok := m.memo.Get(p.Key); ok {
		m.hits.Add(1)
		return body, nil
	}
	body, err := m.remote.Do(ctx, p)
	if err != nil {
		return nil, err
	}
	if err := m.memo.Put(p.Key, body); err != nil {
		return nil, err
	}
	m.misses.Add(1)
	return body, nil
}

// Hits reports points answered from the memo; Misses reports points the
// wrapped remote had to execute.
func (m *MemoRemote) Hits() int64   { return m.hits.Load() }
func (m *MemoRemote) Misses() int64 { return m.misses.Load() }
