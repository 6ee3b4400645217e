package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/serve"
)

// coordinatorMetrics counts the routing machinery: how many points moved,
// how well affinity paid off, and how often the fleet misbehaved enough to
// need hedges, backoff or rebalancing.
type coordinatorMetrics struct {
	points         atomic.Int64 // points completed successfully
	remoteHits     atomic.Int64 // worker answered from its cache
	remoteMisses   atomic.Int64 // worker had to simulate
	hedges         atomic.Int64 // hedge requests fired
	hedgeWins      atomic.Int64 // hedges that beat the primary
	rebalances     atomic.Int64 // points served by a non-home worker
	backpressure   atomic.Int64 // 429 waits honored
	failures       atomic.Int64 // transport errors + 5xx responses
	cooldowns      atomic.Int64 // breaker open transitions
	journalHits    atomic.Int64 // points answered from the durable journal
	journalAppends atomic.Int64 // points durably journaled after completing
	retrySpent     atomic.Int64 // per-sweep retry budget units consumed
}

// WorkerSnapshot is one worker's counters at a point in time.
type WorkerSnapshot struct {
	URL      string `json:"url"`
	Requests int64  `json:"requests"`
	Failures int64  `json:"failures"`
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
	Inflight int64  `json:"inflight"`
	// Breaker is the circuit-breaker state at snapshot time:
	// 0 closed, 1 half-open, 2 open.
	Breaker int `json:"breaker"`
}

// Snapshot is the coordinator's counters at a point in time.
type Snapshot struct {
	Points         int64            `json:"points"`
	RemoteHits     int64            `json:"remote_hits"`
	RemoteMisses   int64            `json:"remote_misses"`
	Hedges         int64            `json:"hedges"`
	HedgeWins      int64            `json:"hedge_wins"`
	Rebalances     int64            `json:"rebalances"`
	Backpressure   int64            `json:"backpressure_waits"`
	Failures       int64            `json:"failures"`
	Cooldowns      int64            `json:"cooldowns"`
	JournalHits    int64            `json:"journal_hits"`
	JournalAppends int64            `json:"journal_appends"`
	JournalEntries int64            `json:"journal_entries"`
	RetrySpent     int64            `json:"retry_spent"`
	RetryLeft      int64            `json:"retry_left"` // -1 when unlimited
	Workers        []WorkerSnapshot `json:"workers"`
}

// HitRatio is the fraction of attributed responses answered from worker
// caches (0 when nothing has been attributed yet).
func (s Snapshot) HitRatio() float64 {
	total := s.RemoteHits + s.RemoteMisses
	if total == 0 {
		return 0
	}
	return float64(s.RemoteHits) / float64(total)
}

// Snapshot captures the coordinator's counters, workers sorted by URL.
func (c *Coordinator) Snapshot() Snapshot {
	s := Snapshot{
		Points:         c.m.points.Load(),
		RemoteHits:     c.m.remoteHits.Load(),
		RemoteMisses:   c.m.remoteMisses.Load(),
		Hedges:         c.m.hedges.Load(),
		HedgeWins:      c.m.hedgeWins.Load(),
		Rebalances:     c.m.rebalances.Load(),
		Backpressure:   c.m.backpressure.Load(),
		Failures:       c.m.failures.Load(),
		Cooldowns:      c.m.cooldowns.Load(),
		JournalHits:    c.m.journalHits.Load(),
		JournalAppends: c.m.journalAppends.Load(),
		RetrySpent:     c.m.retrySpent.Load(),
		RetryLeft:      c.retryBudgetLeft(),
	}
	if sized, ok := c.opts.Memo.(interface{ Len() int }); ok {
		s.JournalEntries = int64(sized.Len())
	}
	now := c.now()
	c.mu.RLock()
	for _, w := range c.workers {
		s.Workers = append(s.Workers, WorkerSnapshot{
			URL:      w.url,
			Requests: w.requests.Load(),
			Failures: w.failures.Load(),
			Hits:     w.hits.Load(),
			Misses:   w.misses.Load(),
			Inflight: w.inflight.Load(),
			Breaker:  w.br.state(now),
		})
	}
	c.mu.RUnlock()
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].URL < s.Workers[j].URL })
	return s
}

// WriteMetrics renders the coordinator's counters in Prometheus text
// exposition format (the coordinator server mounts this on /metrics).
func (c *Coordinator) WriteMetrics(b *strings.Builder) {
	s := c.Snapshot()
	e := serve.NewExposition(b)
	e.Counter("cluster_points_total", "Points routed to completion.", s.Points)
	e.Counter("cluster_remote_hits_total", "Points answered from a worker's result cache.", s.RemoteHits)
	e.Counter("cluster_remote_misses_total", "Points a worker had to simulate.", s.RemoteMisses)
	e.Counter("cluster_hedges_total", "Hedge requests fired against straggling points.", s.Hedges)
	e.Counter("cluster_hedge_wins_total", "Hedges that finished before the primary.", s.HedgeWins)
	e.Counter("cluster_rebalances_total", "Points served by a worker other than their rendezvous home.", s.Rebalances)
	e.Counter("cluster_backpressure_waits_total", "429 responses absorbed by waiting out the worker's Retry-After.", s.Backpressure)
	e.Counter("cluster_worker_failures_total", "Transport errors and 5xx responses from workers.", s.Failures)
	e.Counter("cluster_worker_cooldowns_total", "Times a worker's circuit breaker opened.", s.Cooldowns)
	e.Counter("cluster_journal_hits_total", "Points answered from the durable sweep journal.", s.JournalHits)
	e.Counter("cluster_journal_appends_total", "Points durably appended to the sweep journal.", s.JournalAppends)
	e.Counter("cluster_retry_spent_total", "Per-sweep retry budget units consumed (failovers, backpressure waits, hedges).", s.RetrySpent)
	e.Gauge("cluster_journal_entries", "Distinct points in the sweep journal.", s.JournalEntries)
	e.Gauge("cluster_retry_budget_remaining", "Remaining per-sweep retry budget (-1 = unlimited).", s.RetryLeft)

	perWorker := func(name, help, typ string, pick func(WorkerSnapshot) int64) {
		e.Family(name, help, typ)
		for _, w := range s.Workers {
			e.Labelled(name, "worker", w.URL, pick(w))
		}
	}
	perWorker("cluster_worker_inflight", "Requests currently in flight to the worker.", "gauge",
		func(w WorkerSnapshot) int64 { return w.Inflight })
	perWorker("cluster_worker_requests_total", "Requests sent to the worker, hedges included.", "counter",
		func(w WorkerSnapshot) int64 { return w.Requests })
	perWorker("cluster_worker_hits_total", "Responses the worker answered from cache.", "counter",
		func(w WorkerSnapshot) int64 { return w.Hits })
	perWorker("cluster_worker_breaker_state", "Circuit-breaker state per worker: 0 closed, 1 half-open, 2 open.", "gauge",
		func(w WorkerSnapshot) int64 { return int64(w.Breaker) })
}

// Report is a one-line human summary for tool -cluster-report output.
func (s Snapshot) Report() string {
	line := fmt.Sprintf(
		"cluster: %d points, hit ratio %.2f (%d hit / %d miss), %d rebalances, %d hedges (%d won), %d backpressure waits, %d worker failures",
		s.Points, s.HitRatio(), s.RemoteHits, s.RemoteMisses,
		s.Rebalances, s.Hedges, s.HedgeWins, s.Backpressure, s.Failures)
	if s.JournalHits > 0 || s.JournalAppends > 0 || s.JournalEntries > 0 {
		line += fmt.Sprintf(", journal %d replayed / %d appended", s.JournalHits, s.JournalAppends)
	}
	return line
}
