package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
)

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	return New(opts)
}

func postRun(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

const smallRun = `{"config":{"partition":4,"topology":"mesh","policy":"ts"}}`

// TestScheddRunCacheHitByteIdentical is the headline serving invariant: a
// repeated POST /v1/run is a cache hit whose body is byte-identical to the
// first response.
func TestScheddRunCacheHitByteIdentical(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	first := postRun(t, h, smallRun)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST: status %d, body %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", got)
	}
	key := first.Header().Get("X-Key")
	if len(key) != 64 {
		t.Errorf("X-Key = %q, want 64 hex chars", key)
	}

	second := postRun(t, h, smallRun)
	if second.Code != http.StatusOK {
		t.Fatalf("second POST: status %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", got)
	}
	if second.Header().Get("X-Key") != key {
		t.Errorf("key changed between identical requests")
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("cached body differs from original:\n first: %s\nsecond: %s", first.Body, second.Body)
	}

	// Equivalent spelling of the same config (explicit defaults) also hits.
	third := postRun(t, h, `{"config":{"processors":16,"partition":4,"topology":"M","policy":"time-shared","app":"matmul"}}`)
	if got := third.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("canonicalized config X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Errorf("canonicalized config body differs")
	}

	// A different format is different content: miss, different key.
	csv := postRun(t, h, `{"format":"csv","config":{"partition":4,"topology":"mesh","policy":"ts"}}`)
	if got := csv.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("csv format X-Cache = %q, want miss", got)
	}
	if csv.Header().Get("X-Key") == key {
		t.Errorf("csv format reused the json key")
	}
	if ct := csv.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv Content-Type = %q", ct)
	}
}

// TestScheddNamedExperiment: a catalog experiment is addressable over HTTP
// and the body matches running the catalog entry directly.
func TestScheddNamedExperiment(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	rr := postRun(t, h, `{"experiment":"e4","format":"csv"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("e4 POST: status %d, body %s", rr.Code, rr.Body)
	}
	want, err := experiments.Lookup("e4").Run(core.Config{}, experiments.CSV, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Body.String() != want {
		t.Errorf("HTTP e4 body differs from direct run:\n http: %q\ndirect: %q", rr.Body, want)
	}
	if again := postRun(t, h, `{"experiment":"e4","format":"csv"}`); again.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeated e4 was not a cache hit")
	}
	// The "fig" long form aliases onto the same id space.
	if alias := postRun(t, h, `{"experiment":"fig3","format":"csv"}`); alias.Code != http.StatusOK {
		t.Errorf("fig3 alias: status %d, body %s", alias.Code, alias.Body)
	}
}

// TestScheddBackpressure: with every slot held and the queue full, POSTs
// shed with 429 + Retry-After instead of queueing unboundedly; a freed slot
// restores service.
func TestScheddBackpressure(t *testing.T) {
	s := testServer(t, Options{MaxInflight: 1, QueueDepth: 1})
	h := s.Handler()

	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter is allowed (depth 1)...
	waiterDone := make(chan *httptest.ResponseRecorder, 1)
	waiterIn := make(chan struct{})
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(smallRun))
		rr := httptest.NewRecorder()
		close(waiterIn)
		h.ServeHTTP(rr, req)
		waiterDone <- rr
	}()
	<-waiterIn
	waitFor(t, func() bool { return s.adm.queued() > 0 }, "waiter never queued")

	// ...the next arrival is shed immediately.
	shed := postRun(t, h, smallRun)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", shed.Code)
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}

	release()
	rr := <-waiterDone
	if rr.Code != http.StatusOK {
		t.Errorf("queued request after release: status %d, body %s", rr.Code, rr.Body)
	}
	if got := counterValue(t, h, "schedd_rejected_total"); got != 1 {
		t.Errorf("schedd_rejected_total = %d, want 1", got)
	}
}

// TestScheddQueuedDeadline: a request whose deadline expires while queued
// gets 504 and leaves the queue.
func TestScheddQueuedDeadline(t *testing.T) {
	s := testServer(t, Options{MaxInflight: 1, QueueDepth: 4})
	h := s.Handler()
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rr := postRun(t, h, `{"timeout_ms":30,"config":{"partition":4}}`)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", rr.Code, rr.Body)
	}
	if q := s.adm.queued(); q != 0 {
		t.Errorf("queue depth %d after deadline, want 0", q)
	}
}

// TestScheddClientDisconnectFreesQueue: a client that goes away while
// queued releases its queue position (its engine work is never started; an
// in-flight engine plan stops dispatching via engine.Options.Ctx, which
// has its own tests).
func TestScheddClientDisconnectFreesQueue(t *testing.T) {
	s := testServer(t, Options{MaxInflight: 1, QueueDepth: 4})
	h := s.Handler()
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(smallRun)).WithContext(ctx)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		done <- rr
	}()
	waitFor(t, func() bool { return s.adm.queued() > 0 }, "request never queued")
	cancel()
	rr := <-done
	if rr.Code != statusClientClosedRequest {
		t.Errorf("status %d, want %d", rr.Code, statusClientClosedRequest)
	}
	if q := s.adm.queued(); q != 0 {
		t.Errorf("queue depth %d after disconnect, want 0", q)
	}
	if got := counterValue(t, h, "schedd_cancelled_total"); got != 1 {
		t.Errorf("schedd_cancelled_total = %d, want 1", got)
	}
}

// TestScheddMetricsAgree: the /metrics counters reproduce the test's
// request sequence exactly: 2 identical POSTs = 1 miss + 1 hit, a third
// distinct POST = another miss, one malformed POST.
func TestScheddMetricsAgree(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	postRun(t, h, smallRun)                                  // miss
	postRun(t, h, smallRun)                                  // hit
	postRun(t, h, `{"config":{"partition":4,"seed":99}}`)    // miss
	postRun(t, h, `{"config":{"policy":"no-such-policy"}}`)  // 400
	postRun(t, h, `{"config":{"partitoin":4}}`)              // 400: unknown field
	postRun(t, h, `{"experiment":"e99"}`)                    // 400: unknown id
	postRun(t, h, `{"config":{"partition":4},"batch":true}`) // 400: unknown field

	want := map[string]int64{
		"schedd_requests_total":     3,
		"schedd_cache_hits_total":   1,
		"schedd_cache_misses_total": 2,
		"schedd_bad_requests_total": 4,
		"schedd_rejected_total":     0,
		"schedd_failed_total":       0,
		"schedd_queue_depth":        0,
		"schedd_inflight":           0,
		"schedd_cache_entries":      2,
	}
	for name, wantV := range want {
		if got := counterValue(t, h, name); got != wantV {
			t.Errorf("%s = %d, want %d", name, got, wantV)
		}
	}
	// Simulating took some wall time; the throughput counters move.
	if v := counterValue(t, h, "schedd_sim_seconds_total"); v <= 0 {
		t.Errorf("schedd_sim_seconds_total = %d, want > 0", v)
	}
}

// TestScheddHealthzDrain: /healthz reports ok, then 503 once draining.
func TestScheddHealthzDrain(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "ok") {
		t.Errorf("healthz: %d %s", rr.Code, rr.Body)
	}
	s.SetDraining(true)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "draining") {
		t.Errorf("draining healthz: %d %s", rr.Code, rr.Body)
	}
	if counterValue(t, h, "schedd_draining") != 1 {
		t.Errorf("schedd_draining gauge not set")
	}
}

// TestScheddExperimentsListing: the catalog is discoverable.
func TestScheddExperimentsListing(t *testing.T) {
	s := testServer(t, Options{})
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/experiments", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	for _, id := range []string{"f3", "f6", "e1", "e12"} {
		if !strings.Contains(rr.Body.String(), fmt.Sprintf("%q", id)) {
			t.Errorf("listing missing %s", id)
		}
	}
}

// TestScheddPoliciesListing: GET /v1/policies exposes the composite
// disciplines and all three component vocabularies with their aliases.
func TestScheddPoliciesListing(t *testing.T) {
	s := testServer(t, Options{})
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/policies", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, key := range []string{"policies", "partition_policies", "quantum_policies", "queue_orders"} {
		if !strings.Contains(body, fmt.Sprintf("%q", key)) {
			t.Errorf("listing missing section %s", key)
		}
	}
	for _, name := range []string{"static", "time-shared", "gang", "equi", "dynamic", "srpt", "priority", "rrjob"} {
		if !strings.Contains(body, fmt.Sprintf("%q", name)) {
			t.Errorf("listing missing policy %s", name)
		}
	}
	if post := httptest.NewRecorder(); true {
		s.Handler().ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/v1/policies", nil))
		if post.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/policies: status %d, want 405", post.Code)
		}
	}
}

// TestScheddComposedPolicyRun: a config composing zoo components runs over
// /v1/run, caches under its own key, and is distinct from the legacy
// discipline it extends.
func TestScheddComposedPolicyRun(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	legacy := postRun(t, h, `{"config":{"partition":4,"topology":"mesh","policy":"ts"}}`)
	if legacy.Code != http.StatusOK {
		t.Fatalf("legacy run: status %d, body %s", legacy.Code, legacy.Body)
	}
	composed := postRun(t, h, `{"config":{"partition":4,"topology":"mesh","policy":"ts","quantum_policy":"dynamic","queue_order":"srpt"}}`)
	if composed.Code != http.StatusOK {
		t.Fatalf("composed run: status %d, body %s", composed.Code, composed.Body)
	}
	if composed.Header().Get("X-Key") == legacy.Header().Get("X-Key") {
		t.Errorf("composed config reused the legacy cache key")
	}
	if !strings.Contains(composed.Body.String(), "shared/dynamic/srpt") {
		t.Errorf("composed label missing from body: %s", composed.Body)
	}
	// Overrides that spell out the legacy composite are the same content.
	spelled := postRun(t, h, `{"config":{"partition":4,"topology":"mesh","policy":"ts","partition_policy":"shared","quantum_policy":"rrjob","queue_order":"fcfs"}}`)
	if spelled.Header().Get("X-Key") != legacy.Header().Get("X-Key") {
		t.Errorf("spelled-out composite did not canonicalize onto the legacy key")
	}
	if bad := postRun(t, h, `{"config":{"quantum_policy":"warp"}}`); bad.Code != http.StatusBadRequest {
		t.Errorf("unknown quantum policy: status %d, want 400", bad.Code)
	}
}

// TestScheddConcurrentIdenticalRequests: a thundering herd of identical
// configs produces one body; concurrent misses may each simulate, but
// every response is byte-identical and later requests hit the cache.
func TestScheddConcurrentIdenticalRequests(t *testing.T) {
	s := testServer(t, Options{MaxInflight: 4, QueueDepth: 64})
	h := s.Handler()
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := postRun(t, h, smallRun)
			if rr.Code == http.StatusOK {
				bodies[i] = rr.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	var ref []byte
	for _, b := range bodies {
		if b != nil {
			ref = b
			break
		}
	}
	if ref == nil {
		t.Fatal("no request succeeded")
	}
	for i, b := range bodies {
		if b != nil && !bytes.Equal(b, ref) {
			t.Errorf("response %d differs", i)
		}
	}
	if again := postRun(t, h, smallRun); again.Header().Get("X-Cache") != "hit" {
		t.Errorf("request after herd was not a hit")
	}
}

var metricLine = regexp.MustCompile(`(?m)^(schedd_[a-z_]+) ([0-9.]+)$`)

// counterValue scrapes /metrics and returns the named series as an int64
// (fractional series are truncated — tests only compare whole counts or
// positivity).
func counterValue(t *testing.T, h http.Handler, name string) int64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	for _, m := range metricLine.FindAllStringSubmatch(rr.Body.String(), -1) {
		if m[1] == name {
			f, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("parse %s value %q: %v", name, m[2], err)
			}
			if f > 0 && f < 1 {
				return 1 // positive fractional counts as moved
			}
			return int64(f)
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, rr.Body)
	return 0
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}
