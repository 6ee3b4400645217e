package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// serverMetrics is the observability surface behind /metrics, rendered in
// Prometheus text exposition format. Counters are plain atomics — the whole
// point of the simulator being deterministic is that the interesting
// numbers live in responses; these count the serving machinery itself.
type serverMetrics struct {
	requests     atomic.Int64 // POST /v1/run + /v1/point requests accepted for processing
	badRequests  atomic.Int64 // malformed / unparseable requests
	rejected     atomic.Int64 // shed with 429 (queue full)
	shedOnDrain  atomic.Int64 // queued requests shed with 503 when a drain began
	cancelled    atomic.Int64 // abandoned: client gone or deadline exceeded
	failed       atomic.Int64 // simulation errors (500)
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	storeHits    atomic.Int64 // tier-2 read-through hits (promoted into memory)
	storeFlush   atomic.Int64 // results flushed to the tier-2 store
	storeWarmed  atomic.Int64 // entries warmed from the store at startup
	simMicros    atomic.Int64 // simulated time produced, µs (single runs)
	simWallNanos atomic.Int64 // wall time spent inside the engine, ns
	latency      latencyHistogram
}

// latencyBounds are the request-duration histogram bucket upper bounds in
// seconds: sub-millisecond cache hits through ten-second experiment sweeps,
// roughly ×2.5 apart. The +Inf bucket is implicit (the count).
var latencyBounds = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// latencyHistogram is a fixed-bucket Prometheus histogram over request
// durations, lock-free: one atomic per bucket plus sum and count. It covers
// every terminal outcome of the two simulation endpoints — hits, misses,
// sheds and failures alike — because a client backing off cares about how
// long the answer took, whatever the answer was.
type latencyHistogram struct {
	buckets [len(latencyBounds)]atomic.Int64 // non-cumulative; summed at render
	count   atomic.Int64
	sumNS   atomic.Int64
}

// observe records one request duration.
func (h *latencyHistogram) observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range latencyBounds {
		if s <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// render writes the histogram in exposition format (cumulative buckets).
func (h *latencyHistogram) render(e Exposition, name, help string) {
	e.Family(name, help, "histogram")
	var cum int64
	for i, ub := range latencyBounds {
		cum += h.buckets[i].Load()
		e.Labelled(name+"_bucket", "le", strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	count := h.count.Load()
	e.Labelled(name+"_bucket", "le", "+Inf", count)
	fmt.Fprintf(e.b, "%s_sum %.9f\n%s_count %d\n", name, float64(h.sumNS.Load())/1e9, name, count)
}

// render writes the exposition text. Gauges (queue depth, in-flight, cache
// occupancy) are sampled at scrape time from their owning structures.
func (m *serverMetrics) render(b *strings.Builder, adm *admission, cache *resultCache, store *diskStore, draining bool) {
	e := NewExposition(b)
	e.Counter("schedd_requests_total", "Run requests accepted for processing.", m.requests.Load())
	e.Counter("schedd_bad_requests_total", "Run requests rejected as malformed.", m.badRequests.Load())
	e.Counter("schedd_rejected_total", "Run requests shed with 429 because the admission queue was full.", m.rejected.Load())
	e.Counter("schedd_drain_shed_total", "Queued run requests shed with 503 when a drain began.", m.shedOnDrain.Load())
	e.Counter("schedd_cancelled_total", "Run requests abandoned by deadline or client disconnect.", m.cancelled.Load())
	e.Counter("schedd_failed_total", "Run requests that failed in the simulator.", m.failed.Load())
	e.Counter("schedd_cache_hits_total", "Run requests answered from the result cache.", m.cacheHits.Load())
	e.Counter("schedd_cache_misses_total", "Run requests that had to simulate.", m.cacheMisses.Load())

	entries, bytes, peak := cache.stats()
	e.Gauge("schedd_cache_entries", "Resident result cache entries.", int64(entries))
	e.Gauge("schedd_cache_bytes", "Resident result cache body bytes.", bytes)
	e.Gauge("schedd_cache_peak_bytes", "High-watermark of resident result cache body bytes.", peak)
	if store != nil {
		e.Counter("schedd_store_hits_total", "Requests answered from the tier-2 disk store.", m.storeHits.Load())
		e.Counter("schedd_store_flush_total", "Results flushed to the tier-2 disk store.", m.storeFlush.Load())
		e.Counter("schedd_store_warmed_total", "Cache entries warmed from the tier-2 store at startup.", m.storeWarmed.Load())
		sEntries, sBytes := store.stats()
		e.Gauge("schedd_store_entries", "Results resident in the tier-2 disk store.", int64(sEntries))
		e.Gauge("schedd_store_bytes", "Bytes resident in the tier-2 disk store.", sBytes)
	}
	e.Gauge("schedd_queue_depth", "Requests waiting for an engine slot.", adm.queued())
	e.Gauge("schedd_inflight", "Requests currently simulating.", adm.inflight())
	e.Gauge("schedd_retry_after_seconds", "Current Retry-After hint derived from the observed queue drain rate.", int64(adm.retryAfterSeconds()))
	var d int64
	if draining {
		d = 1
	}
	e.Gauge("schedd_draining", "1 while the server is draining for shutdown.", d)

	m.latency.render(e, "schedd_request_duration_seconds",
		"Wall-clock duration of simulation requests (hits, misses, sheds and failures).")

	// Simulation throughput: simulated seconds produced per wall second is
	// simply the ratio of these two counters over any scrape interval.
	e.Seconds("schedd_sim_seconds_total", "Simulated seconds produced by single-config runs.",
		float64(m.simMicros.Load())/1e6)
	e.Seconds("schedd_sim_wall_seconds_total", "Wall-clock seconds spent executing simulations.",
		float64(m.simWallNanos.Load())/1e9)
}

// Exposition writes metrics in the Prometheus text exposition format
// (version 0.0.4). It is the one renderer behind schedd's and the cluster
// coordinator's /metrics: every family gets its HELP and TYPE lines, and
// label values are escaped as the format requires.
type Exposition struct{ b *strings.Builder }

// NewExposition writes into b.
func NewExposition(b *strings.Builder) Exposition { return Exposition{b} }

// Family writes the HELP and TYPE lines that open a metric family.
func (e Exposition) Family(name, help, typ string) {
	fmt.Fprintf(e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes a whole unlabelled counter family.
func (e Exposition) Counter(name, help string, v int64) {
	e.Family(name, help, "counter")
	fmt.Fprintf(e.b, "%s %d\n", name, v)
}

// Gauge writes a whole unlabelled gauge family.
func (e Exposition) Gauge(name, help string, v int64) {
	e.Family(name, help, "gauge")
	fmt.Fprintf(e.b, "%s %d\n", name, v)
}

// Seconds writes a whole unlabelled counter family of seconds, to the
// microsecond.
func (e Exposition) Seconds(name, help string, v float64) {
	e.Family(name, help, "counter")
	fmt.Fprintf(e.b, "%s %.6f\n", name, v)
}

// Labelled writes one sample of a family opened with Family, carrying a
// single label.
func (e Exposition) Labelled(name, label, value string, v int64) {
	fmt.Fprintf(e.b, "%s{%s=\"%s\"} %d\n", name, label, labelEscaper.Replace(value), v)
}

// labelEscaper applies the text format's label-value escapes: backslash,
// double quote and newline, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
