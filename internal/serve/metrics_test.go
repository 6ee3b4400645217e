package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestScheddMetricsExposition pins the whole /metrics body for a fixed
// counter state: once without and once with a tier-2 store, the second
// while draining. The exposition text is what scrapers parse, so it must
// not drift under a refactor.
func TestScheddMetricsExposition(t *testing.T) {
	var m serverMetrics
	for i, c := range []interface{ Add(int64) int64 }{
		&m.requests, &m.badRequests, &m.rejected, &m.shedOnDrain, &m.cancelled, &m.failed,
		&m.cacheHits, &m.cacheMisses, &m.storeHits, &m.storeFlush, &m.storeWarmed,
	} {
		c.Add(int64(10*i + 1))
	}
	m.simMicros.Add(12345678)
	m.simWallNanos.Add(987654321)
	for _, d := range []time.Duration{
		200 * time.Microsecond, 3 * time.Millisecond, 3 * time.Millisecond, 70 * time.Millisecond,
		time.Second, 4 * time.Second, 30 * time.Second,
	} {
		m.latency.observe(d)
	}

	adm := newAdmission(2, 4)
	adm.waiting.Store(3)
	adm.running.Store(2)
	cache := newResultCache(8, 1<<20)
	cache.put("a", []byte("0123456789"), "text/plain")
	cache.put("b", []byte("01234"), "text/plain")
	store, err := openDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.put("0123456789abcdef", []byte("body"), "text/plain"); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	m.render(&b, adm, cache, nil, false)
	b.WriteString("# ---- with store, draining ----\n")
	m.render(&b, adm, cache, store, true)

	want, err := os.ReadFile(filepath.Join("testdata", "metrics_exposition.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("/metrics drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestScheddExpositionLabelEscaping: label values carry exactly the text
// format's three escapes and pass everything else through.
func TestScheddExpositionLabelEscaping(t *testing.T) {
	var b strings.Builder
	NewExposition(&b).Labelled("m", "worker", "http://h/a\"b\\c\nd\u200b", 1)
	if got, want := b.String(), "m{worker=\"http://h/a\\\"b\\\\c\\nd\u200b\"} 1\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
