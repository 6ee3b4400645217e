package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
)

// These TestCluster* tests are the cluster CI gate (scripts/ci.sh): real
// serve workers behind httptest, a real coordinator, and the acceptance
// properties of the distributed sweep fabric — byte-identical output at any
// fleet size, survival of a worker dying mid-sweep, and cache-affine
// routing paying off on repeat runs.

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newWorker boots one real simulation worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Options{Workers: 1, MaxInflight: 4, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// grid is a small sweep: enough points to spread over a fleet, cheap enough
// to simulate many times in one test binary.
func grid(t *testing.T) []core.Config {
	t.Helper()
	var cfgs []core.Config
	for _, part := range []int{2, 4} {
		for _, pol := range []string{"static", "ts", "rrp"} {
			cfg, err := serve.ConfigSpec{Partition: part, Topology: "mesh", Policy: pol}.ToConfig()
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// sweepBodies runs the configs through the coordinator as one remote plan
// and returns the response bodies in plan order, failing on any error.
func sweepBodies(t *testing.T, c *Coordinator, cfgs []core.Config, parallelism int) [][]byte {
	t.Helper()
	plan := engine.NewPlan[[]byte]("cluster-test")
	for _, cfg := range cfgs {
		pt, err := ConfigPoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan.Add(pt.Label, func() ([]byte, error) { return c.Do(context.Background(), pt) })
	}
	bodies, errs := engine.ExecuteAll(plan, engine.Options{Workers: parallelism})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("point %d (%s): %v", i, cfgs[i].Label(), err)
		}
	}
	return bodies
}

// TestClusterByteIdenticalAnyFleetSize is the merge invariant: the same
// sweep produces byte-identical responses whether it runs on one, two or
// three workers, at any client parallelism, and the wire values equal a
// local core.Run exactly.
func TestClusterByteIdenticalAnyFleetSize(t *testing.T) {
	w1, w2, w3 := newWorker(t), newWorker(t), newWorker(t)
	cfgs := grid(t)

	base := New(Options{Workers: []string{w1.URL}, DisableHedging: true})
	want := sweepBodies(t, base, cfgs, 1)

	// The wire summary is lossless: decoding the first body gives exactly
	// what running the config locally gives.
	got, err := serve.DecodePointSummary(want[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if local := serve.PointSummaryFrom(res); got != local {
		t.Errorf("wire summary != local run:\n got: %+v\nwant: %+v", got, local)
	}

	for _, tc := range []struct {
		name        string
		fleet       []string
		parallelism int
	}{
		{"2 workers seq", []string{w1.URL, w2.URL}, 1},
		{"2 workers par", []string{w1.URL, w2.URL}, 6},
		{"3 workers par", []string{w1.URL, w2.URL, w3.URL}, 6},
	} {
		c := New(Options{Workers: tc.fleet, DisableHedging: true})
		bodies := sweepBodies(t, c, cfgs, tc.parallelism)
		for i := range bodies {
			if !bytes.Equal(bodies[i], want[i]) {
				t.Errorf("%s: point %d differs:\n got: %s\nwant: %s",
					tc.name, i, bodies[i], want[i])
			}
		}
	}
}

// TestClusterRepeatSweepHitRatio: a repeated sweep routed by the same
// rendezvous ranking lands every point on the worker already caching it —
// the coordinator observes (almost) pure hits the second time around.
func TestClusterRepeatSweepHitRatio(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	fleet := []string{w1.URL, w2.URL}
	cfgs := grid(t)

	first := New(Options{Workers: fleet, DisableHedging: true})
	sweepBodies(t, first, cfgs, 4)

	// A fresh coordinator (fresh counters, even a fresh client — think "the
	// next morning's sweep") against the same fleet.
	second := New(Options{Workers: fleet, DisableHedging: true})
	sweepBodies(t, second, cfgs, 4)
	snap := second.Snapshot()
	if snap.Points != int64(len(cfgs)) {
		t.Errorf("second sweep points = %d, want %d", snap.Points, len(cfgs))
	}
	if ratio := snap.HitRatio(); ratio < 0.9 {
		t.Errorf("repeat sweep hit ratio = %.2f, want >= 0.9 (%d hits / %d misses)",
			ratio, snap.RemoteHits, snap.RemoteMisses)
	}
}

// TestClusterWorkerDeathMidSweep: a worker that starts failing mid-sweep
// costs nothing but time — every point still completes, rerouted to the
// survivor, with the exact bytes a healthy fleet produces.
func TestClusterWorkerDeathMidSweep(t *testing.T) {
	healthy := newWorker(t)
	inner := serve.New(serve.Options{Workers: 1, Logger: discardLogger()}).Handler()
	var served atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			http.Error(w, "worker crashed", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	fleet := []string{healthy.URL, flaky.URL}

	// Extend the grid until the flaky worker is home to at least three
	// points, so its death (after serving two) is guaranteed to strand
	// routed work. httptest ports vary per run; the precondition keeps the
	// test deterministic anyway.
	cfgs := grid(t)
	homedToFlaky := func() int {
		n := 0
		for _, cfg := range cfgs {
			h, err := cfg.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if rankWorkers(fleet, h)[0] == flaky.URL {
				n++
			}
		}
		return n
	}
	for seed := int64(100); homedToFlaky() < 3; seed++ {
		cfg, err := serve.ConfigSpec{Partition: 4, Policy: "ts", Topology: "mesh", Seed: seed}.ToConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}

	// Baseline from a coordinator that never saw the flaky worker.
	want := sweepBodies(t, New(Options{Workers: []string{healthy.URL}, DisableHedging: true}), cfgs, 1)

	c := New(Options{
		Workers:        fleet,
		DisableHedging: true,
		Cooldown:       time.Minute, // stay down for the rest of the test
	})
	bodies := sweepBodies(t, c, cfgs, 1)
	for i := range bodies {
		if !bytes.Equal(bodies[i], want[i]) {
			t.Errorf("point %d differs after worker death:\n got: %s\nwant: %s", i, bodies[i], want[i])
		}
	}
	snap := c.Snapshot()
	if snap.Rebalances == 0 {
		t.Errorf("worker death produced no rebalances: %+v", snap)
	}
	if snap.Failures == 0 || snap.Cooldowns == 0 {
		t.Errorf("worker death not observed: failures=%d cooldowns=%d", snap.Failures, snap.Cooldowns)
	}
	if snap.Points != int64(len(cfgs)) {
		t.Errorf("points = %d, want %d", snap.Points, len(cfgs))
	}
}

// TestClusterBackpressureHonored: a 429 with Retry-After is waited out in
// place (bounded), keeping the point on its cache-affine home.
func TestClusterBackpressureHonored(t *testing.T) {
	var calls atomic.Int64
	respBody := []byte(`{"answer":42}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("X-Cache", "miss")
		w.Write(respBody)
	}))
	t.Cleanup(ts.Close)

	c := New(Options{Workers: []string{ts.URL}, MaxBackoff: 50 * time.Millisecond, DisableHedging: true})
	body, err := c.Do(context.Background(), engine.RemotePoint{Label: "p", Key: "k", Path: "/v1/point", Body: []byte("{}")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, respBody) {
		t.Errorf("body = %s, want %s", body, respBody)
	}
	snap := c.Snapshot()
	if snap.Backpressure != 1 {
		t.Errorf("backpressure waits = %d, want 1", snap.Backpressure)
	}
	if snap.Rebalances != 0 {
		t.Errorf("backpressure caused %d rebalances, want 0 (point stays home)", snap.Rebalances)
	}
}

// TestClusterBackpressureSaturation: a worker that never stops saying 429
// exhausts the bounded retries and the point fails over (here: fails, the
// fleet being one worker) instead of waiting forever.
func TestClusterBackpressureSaturation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)

	c := New(Options{Workers: []string{ts.URL}, MaxBackoff: 20 * time.Millisecond, DisableHedging: true})
	_, err := c.Do(context.Background(), engine.RemotePoint{Label: "p", Key: "k", Path: "/v1/point", Body: []byte("{}")})
	if err == nil {
		t.Fatal("Do succeeded against a saturated worker")
	}
	if snap := c.Snapshot(); snap.Backpressure != 2 {
		t.Errorf("backpressure waits = %d, want 2 (BackpressureRetries default)", snap.Backpressure)
	}
}

// TestClusterPermanentErrorNotSpread: a request the home worker rejects as
// malformed (4xx) is wrong on every worker; the coordinator must not
// shotgun it across the fleet.
func TestClusterPermanentErrorNotSpread(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	c := New(Options{Workers: []string{w1.URL, w2.URL}, DisableHedging: true})

	_, err := c.Do(context.Background(), engine.RemotePoint{
		Label: "bad", Key: "bad-key", Path: "/v1/point",
		Body: []byte(`{"config":{"policy":"no-such-policy"}}`),
	})
	if err == nil {
		t.Fatal("Do accepted a malformed point")
	}
	var perm *permanentError
	if !errors.As(err, &perm) {
		t.Fatalf("error %v is not permanent", err)
	}
	var total int64
	for _, w := range c.Snapshot().Workers {
		total += w.Requests
	}
	if total != 1 {
		t.Errorf("malformed request hit %d workers, want 1", total)
	}
}

// TestClusterHedgeRacesStraggler: a point stuck on a straggling home past
// the latency quantile is raced on the next-ranked worker, and the hedge's
// answer wins.
func TestClusterHedgeRacesStraggler(t *testing.T) {
	fastBody := []byte(`{"who":"fast"}`)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the HTTP server only watches for client
		// disconnect once the request body is consumed, and real workers
		// always parse it.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done(): // hedge won; primary cancelled
			return
		case <-time.After(10 * time.Second):
		}
		w.Write([]byte(`{"who":"slow"}`))
	}))
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(fastBody)
	}))
	t.Cleanup(fast.Close)
	fleet := []string{slow.URL, fast.URL}

	// A key whose rendezvous home is the slow worker, so the hedge (which
	// starts at the second-ranked worker) is what saves the point.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if rankWorkers(fleet, k)[0] == slow.URL {
			key = k
			break
		}
	}

	c := New(Options{
		Workers:         fleet,
		HedgeMinSamples: 1,
		HedgeMinDelay:   5 * time.Millisecond,
	})
	c.lat.record(time.Millisecond) // arm hedging: one observed completion

	body, err := c.Do(context.Background(), engine.RemotePoint{Label: "straggler", Key: key, Path: "/x", Body: []byte("{}")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, fastBody) {
		t.Errorf("body = %s, want the hedge's %s", body, fastBody)
	}
	snap := c.Snapshot()
	if snap.Hedges != 1 || snap.HedgeWins != 1 {
		t.Errorf("hedges = %d wins = %d, want 1/1", snap.Hedges, snap.HedgeWins)
	}
}

// TestClusterNoWorkers: an empty fleet is an immediate, typed error.
func TestClusterNoWorkers(t *testing.T) {
	c := New(Options{})
	_, err := c.Do(context.Background(), engine.RemotePoint{Label: "p", Key: "k", Path: "/x", Body: nil})
	if err != errNoWorkers {
		t.Errorf("err = %v, want errNoWorkers", err)
	}
}
