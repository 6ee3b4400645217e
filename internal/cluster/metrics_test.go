package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestClusterMetricsExposition pins the coordinator's whole /metrics body
// for a fixed counter state and a two-worker fleet (one breaker open), so
// the exposition text cannot drift under a refactor.
func TestClusterMetricsExposition(t *testing.T) {
	coord := New(Options{DisableHedging: true, SweepRetryBudget: 100})
	cs := NewServer(ServerOptions{Coordinator: coord, LeaseTTL: time.Minute, Logger: discardLogger()})
	t.Cleanup(cs.Close)
	front := httptest.NewServer(cs.Handler())
	t.Cleanup(front.Close)
	for _, addr := range []string{"http://10.0.0.2:8080", "http://10.0.0.1:8080"} {
		resp, err := http.Post(front.URL+"/v1/workers/register", "application/json",
			strings.NewReader(`{"addr":"`+addr+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", addr, resp.StatusCode)
		}
	}

	m := &coord.m
	for i, c := range []interface{ Add(int64) int64 }{
		&m.points, &m.remoteHits, &m.remoteMisses, &m.hedges, &m.hedgeWins, &m.rebalances,
		&m.backpressure, &m.failures, &m.cooldowns, &m.journalHits, &m.journalAppends, &m.retrySpent,
	} {
		c.Add(int64(10*i + 1))
	}
	coord.retryBudget.Add(-7)
	coord.mu.RLock()
	for i, u := range []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"} {
		w := coord.workers[u]
		w.requests.Add(int64(5 + i))
		w.failures.Add(int64(i))
		w.hits.Add(int64(3 + i))
		w.misses.Add(2)
		w.inflight.Add(int64(i))
		if i == 1 {
			w.br.trip(time.Hour, time.Hour, time.Now())
		}
	}
	coord.mu.RUnlock()

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_exposition.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/metrics drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestClusterRegisterRejectsMalformedAddr: a worker address becomes a
// /metrics label value, so registration refuses anything that is not an
// http(s) URL with a host and without control characters.
func TestClusterRegisterRejectsMalformedAddr(t *testing.T) {
	cs := NewServer(ServerOptions{Coordinator: New(Options{}), LeaseTTL: time.Minute, Logger: discardLogger()})
	t.Cleanup(cs.Close)
	h := cs.Handler()
	register := func(body string) int {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/workers/register", strings.NewReader(body)))
		return rr.Code
	}
	for _, body := range []string{
		`{"addr":"http://10.0.0.1:8080\t"}`,
		`{"addr":"http://10.0.0.1\n:8080"}`,
		`{"addr":"http://10.0.0.1:8080/\u0085"}`,
		`{"addr":"ftp://10.0.0.1:8080"}`,
		`{"addr":"http://"}`,
		`{"addr":"10.0.0.1:8080"}`,
	} {
		if code := register(body); code != http.StatusBadRequest {
			t.Errorf("register %s: status %d, want 400", body, code)
		}
	}
	if code := register(`{"addr":"https://worker-1.example:8443/"}`); code != http.StatusOK {
		t.Errorf("valid address: status %d, want 200", code)
	}
	if got := cs.coord.WorkerURLs(); len(got) != 1 || got[0] != "https://worker-1.example:8443" {
		t.Errorf("fleet = %v, want only the valid worker", got)
	}
}
