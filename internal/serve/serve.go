// Package serve turns the simulator into a long-running service: an HTTP
// API that accepts experiment requests as JSON, executes them on the
// internal/engine worker pool, and answers repeated queries from a
// content-addressed result cache instead of re-simulating.
//
// Three properties make it production-shaped rather than a CGI wrapper:
//
//   - Content-addressed results. Simulations are deterministic, so the
//     canonical hash of (config, experiment, format) — core.Config.Hash
//     plus the request envelope — names the response bytes forever. A
//     repeated POST /v1/run is a cache hit returning the byte-identical
//     body, marked X-Cache: hit.
//
//   - Bounded admission. At most MaxInflight simulations run at once and
//     at most QueueDepth requests wait; everyone else gets 429 +
//     Retry-After immediately, with the hint derived from the observed
//     queue drain rate. Each admitted request carries a deadline, and a
//     client that disconnects cancels its engine work via the request
//     context in engine.Options.
//
//   - Observability. /metrics exposes Prometheus-format counters, gauges
//     and a request-latency histogram (requests, cache hits/misses, queue
//     depth, in-flight, simulated-seconds vs wall-seconds), /healthz
//     reports liveness and drain state, and every request emits one
//     structured log line.
//
// As a cluster worker (cmd/schedd -worker), the server additionally exposes
// POST /v1/point — the lossless single-run wire format the coordinator
// shards sweeps over (see point.go and internal/cluster) — and POST
// /v1/fork, the warm-resume form: a serialized core.Snapshot plus a
// divergence, so shared-prefix sweep points resume from the donor's state
// instead of cold-starting (see fork.go).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Options tunes a Server. Zero values take the listed defaults.
type Options struct {
	// Workers is the engine worker-pool size per request (0 = all CPUs).
	// Total simulation parallelism is bounded by Workers × MaxInflight.
	Workers int
	// MaxInflight bounds concurrently executing requests (default 2).
	MaxInflight int
	// QueueDepth bounds requests waiting for an execution slot; beyond it
	// requests are shed with 429 (default 8).
	QueueDepth int
	// CacheEntries / CacheBytes bound the result cache (defaults 1024
	// entries, 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// DefaultTimeout bounds a request's total processing time, queueing
	// included, when the request does not set its own (default 60s).
	// MaxTimeout caps client-requested timeouts (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// StoreDir, when non-empty, enables the tier-2 disk-backed result
	// store behind the in-memory cache (see store.go): results are
	// written behind the response path, the cache is warmed from the
	// store at startup, and a restarted worker serves hits for everything
	// it had computed before dying. StoreBytes bounds the resident store
	// size (default 256 MiB); the oldest results are collected past it.
	StoreDir   string
	StoreBytes int64
	// Logger receives one structured line per request; nil uses
	// slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.StoreBytes <= 0 {
		o.StoreBytes = 256 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Server is the simulation service. Create with New (memory-only cache)
// or Open (with the tier-2 disk store), mount via Handler.
type Server struct {
	opts     Options
	cache    *resultCache
	store    *diskStore // nil without Options.StoreDir
	adm      *admission
	metrics  serverMetrics
	log      *slog.Logger
	draining atomic.Bool

	flushMu     sync.Mutex
	flushq      chan flushItem
	flushClosed bool
	flushDone   chan struct{}
}

// flushItem is one write-behind unit; a fence item (fence non-nil) marks a
// FlushStore barrier instead of carrying a result.
type flushItem struct {
	key         string
	contentType string
	body        []byte
	fence       chan struct{}
}

// New builds a Server with the given options. Options.StoreDir is ignored
// here — use Open for a server with the tier-2 store.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:  opts,
		cache: newResultCache(opts.CacheEntries, opts.CacheBytes),
		adm:   newAdmission(opts.MaxInflight, opts.QueueDepth),
		log:   opts.Logger,
	}
}

// Open builds a Server and, when Options.StoreDir is set, attaches the
// tier-2 disk store: resident results warm the memory cache immediately
// (cache warming on worker join), and new results are flushed behind the
// response path by a write-behind goroutine. Call Close to stop it.
func Open(opts Options) (*Server, error) {
	s := New(opts)
	if s.opts.StoreDir == "" {
		return s, nil
	}
	st, err := openDiskStore(s.opts.StoreDir, s.opts.StoreBytes)
	if err != nil {
		return nil, err
	}
	s.store = st
	warmed := st.warm(s.cache)
	s.metrics.storeWarmed.Store(int64(warmed))
	if warmed > 0 {
		s.log.Info("store", slog.String("dir", s.opts.StoreDir), slog.Int("warmed", warmed))
	}
	s.flushq = make(chan flushItem, 256)
	s.flushDone = make(chan struct{})
	go s.flushLoop()
	return s, nil
}

// flushLoop is the write-behind flusher: it drains queued results into the
// disk store off the response path, and acknowledges FlushStore fences.
func (s *Server) flushLoop() {
	defer close(s.flushDone)
	for item := range s.flushq {
		if item.fence != nil {
			close(item.fence)
			continue
		}
		s.storeWrite(item.key, item.body, item.contentType)
	}
}

// storeWrite persists one result and counts the flush. Store errors are
// logged, not propagated: tier-2 is an accelerator, and a worker that can
// still simulate should keep serving even with a broken disk.
func (s *Server) storeWrite(key string, body []byte, contentType string) {
	if err := s.store.put(key, body, contentType); err != nil {
		s.log.Warn("store", slog.String("key", key[:16]), slog.String("err", err.Error()))
		return
	}
	s.metrics.storeFlush.Add(1)
}

// flushAsync queues one result for write-behind persistence. A full queue
// degrades to a synchronous write rather than dropping the entry — a
// result that reached the memory cache must also reach the store, or a
// restart silently forgets it.
func (s *Server) flushAsync(key string, body []byte, contentType string) {
	if s.store == nil {
		return
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.flushClosed {
		s.storeWrite(key, body, contentType)
		return
	}
	select {
	case s.flushq <- flushItem{key: key, body: body, contentType: contentType}:
	default:
		s.storeWrite(key, body, contentType)
	}
}

// FlushStore blocks until every result queued before the call has been
// written to the tier-2 store. The binary calls it during SIGTERM drain,
// after Shutdown returns: dirty cache entries survive the restart.
func (s *Server) FlushStore() {
	if s.store == nil {
		return
	}
	s.flushMu.Lock()
	if s.flushClosed {
		s.flushMu.Unlock()
		return
	}
	fence := make(chan struct{})
	s.flushq <- flushItem{fence: fence}
	s.flushMu.Unlock()
	<-fence
}

// Close flushes and stops the write-behind goroutine. Safe to call more
// than once; a no-op for servers without a store.
func (s *Server) Close() {
	if s.store == nil {
		return
	}
	s.flushMu.Lock()
	if s.flushClosed {
		s.flushMu.Unlock()
		return
	}
	s.flushClosed = true
	close(s.flushq)
	s.flushMu.Unlock()
	<-s.flushDone
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/point", s.handlePoint)
	mux.HandleFunc("/v1/fork", s.handleFork)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/policies", s.handlePolicies)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// SetDraining flips the drain flag reported by /healthz and /metrics; the
// binary sets it on SIGTERM before http.Server.Shutdown so load balancers
// stop routing while in-flight requests finish. Starting a drain also sheds
// every queued request deterministically (503): shutdown time is bounded by
// the in-flight set, never the queue.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
	s.adm.setDraining(v)
}

// httpError is the uniform JSON error body.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf(format, args...))
}

// checkPost guards the two simulation endpoints: POST only, and a draining
// server sheds new arrivals immediately (in-flight requests on kept-alive
// connections would otherwise sneak in behind the closed listener).
func (s *Server) checkPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	return true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.checkPost(w, r) {
		return
	}
	start := time.Now()
	defer func() { s.metrics.latency.observe(time.Since(start)) }()
	req, err := parseRunRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, entry, format, key, err := req.Resolve()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	exp := ""
	if entry != nil {
		exp = entry.ID
	}
	s.serveKeyed(w, r, keyedRequest{
		start: start, key: key, experiment: exp, format: format.String(),
		timeoutMS: req.TimeoutMS,
		compute: func(ctx context.Context) ([]byte, string, error) {
			return s.execute(ctx, cfg, entry, format)
		},
	})
}

// handlePoint serves the cluster wire format: one config in, the lossless
// run summary out, cached under the canonical config hash.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	if !s.checkPost(w, r) {
		return
	}
	start := time.Now()
	defer func() { s.metrics.latency.observe(time.Since(start)) }()
	req, err := parsePointRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Config.ToConfig()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfgHash, err := cfg.Hash()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveKeyed(w, r, keyedRequest{
		start: start, key: PointKey(cfgHash), format: "point",
		timeoutMS: req.TimeoutMS,
		compute: func(ctx context.Context) ([]byte, string, error) {
			res, err := s.runOne(ctx, "serve/point", cfg.Label(), func() (*metrics.Result, error) { return core.Run(cfg) })
			if err != nil {
				return nil, "", err
			}
			s.metrics.simMicros.Add(int64(res.Makespan))
			return encodePointSummary(PointSummaryFrom(res)), pointContentType, nil
		},
	})
}

// handleFork serves the warm-resume wire format: a base config, its
// serialized fork snapshot and one divergence in, the forked run's lossless
// summary out — byte-identical to what /v1/point would return for the same
// continuation, cached under the (config, snapshot, divergence) address.
// The snapshot body is larger than a config, so the size cap is 8 MiB.
func (s *Server) handleFork(w http.ResponseWriter, r *http.Request) {
	if !s.checkPost(w, r) {
		return
	}
	start := time.Now()
	defer func() { s.metrics.latency.observe(time.Since(start)) }()
	req, err := parseForkRequest(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Config.ToConfig()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfgHash, err := cfg.Hash()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, err := core.DecodeSnapshot(req.Snapshot)
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	div, err := req.Divergence.ToDivergence()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveKeyed(w, r, keyedRequest{
		start: start, key: ForkKey(cfgHash, req.Snapshot, req.Divergence), format: "fork",
		timeoutMS: req.TimeoutMS,
		compute: func(ctx context.Context) ([]byte, string, error) {
			res, err := s.runOne(ctx, "serve/fork", cfg.Label(), func() (*metrics.Result, error) {
				return core.ResumeFromSnapshot(cfg, snap, div)
			})
			if err != nil {
				return nil, "", err
			}
			s.metrics.simMicros.Add(int64(res.Makespan - snap.T))
			return encodePointSummary(PointSummaryFrom(res)), pointContentType, nil
		},
	})
}

// keyedRequest is the shared shape of the two simulation endpoints: a
// content address, a compute function for misses, and log fields.
type keyedRequest struct {
	start      time.Time
	key        string
	experiment string
	format     string
	timeoutMS  int64
	compute    func(ctx context.Context) ([]byte, string, error)
}

// serveKeyed answers from the cache or admits, computes and stores — the
// whole miss path shared by /v1/run and /v1/point.
func (s *Server) serveKeyed(w http.ResponseWriter, r *http.Request, kr keyedRequest) {
	s.metrics.requests.Add(1)
	logAttrs := func(status int, cache string) []any {
		return []any{
			slog.String("method", r.Method), slog.String("path", r.URL.Path),
			slog.Int("status", status), slog.String("cache", cache),
			slog.String("key", kr.key[:16]), slog.String("experiment", kr.experiment),
			slog.String("format", kr.format),
			slog.Int64("dur_ms", time.Since(kr.start).Milliseconds()),
		}
	}

	if e, ok := s.cache.get(kr.key); ok {
		s.metrics.cacheHits.Add(1)
		s.writeResult(w, kr.key, "hit", e.contentType, e.body)
		s.log.Info("run", logAttrs(http.StatusOK, "hit")...)
		return
	}
	// Tier-2 read-through: a result evicted from (or never resident in)
	// the memory cache but persisted on disk is still a hit — promote it
	// back into the LRU and serve it without simulating.
	if s.store != nil {
		if body, contentType, ok := s.store.get(kr.key); ok {
			s.metrics.cacheHits.Add(1)
			s.metrics.storeHits.Add(1)
			s.cache.put(kr.key, body, contentType)
			s.writeResult(w, kr.key, "hit", contentType, body)
			s.log.Info("run", logAttrs(http.StatusOK, "hit")...)
			return
		}
	}
	s.metrics.cacheMisses.Add(1)

	timeout := s.opts.DefaultTimeout
	if kr.timeoutMS > 0 {
		timeout = time.Duration(kr.timeoutMS) * time.Millisecond
		if timeout > s.opts.MaxTimeout {
			timeout = s.opts.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	release, err := s.adm.acquire(ctx)
	if err != nil {
		status := s.admissionFailure(w, err)
		s.log.Warn("run", logAttrs(status, "miss")...)
		return
	}
	simStart := time.Now()
	body, contentType, err := kr.compute(ctx)
	release()
	s.metrics.simWallNanos.Add(time.Since(simStart).Nanoseconds())
	if err != nil {
		status := s.executeFailure(w, ctx, err)
		s.log.Warn("run", append(logAttrs(status, "miss"), slog.String("err", err.Error()))...)
		return
	}
	s.cache.put(kr.key, body, contentType)
	s.flushAsync(kr.key, body, contentType)
	s.writeResult(w, kr.key, "miss", contentType, body)
	s.log.Info("run", logAttrs(http.StatusOK, "miss")...)
}

// admissionFailure maps an acquire error onto a response and returns the
// status used.
func (s *Server) admissionFailure(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.rejected.Add(1)
		// The hint tracks reality: queue length over observed drain rate,
		// not a hardcoded constant. The cluster coordinator reads it to
		// pace its backoff before rehashing the point elsewhere.
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		s.metrics.shedOnDrain.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining, queued request shed")
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.cancelled.Add(1)
		httpError(w, http.StatusGatewayTimeout, "deadline expired while queued")
		return http.StatusGatewayTimeout
	default: // client went away while queued
		s.metrics.cancelled.Add(1)
		httpError(w, statusClientClosedRequest, "client closed request")
		return statusClientClosedRequest
	}
}

// executeFailure maps a simulation error onto a response. Configuration
// problems — the request was wrong, not the system — answer 400 with a
// field-addressed body so clients can point at the offending knob; only
// genuine execution failures answer 500.
func (s *Server) executeFailure(w http.ResponseWriter, ctx context.Context, err error) int {
	var ce *core.ConfigError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.cancelled.Add(1)
		httpError(w, http.StatusGatewayTimeout, "deadline expired mid-run")
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		s.metrics.cancelled.Add(1)
		httpError(w, statusClientClosedRequest, "client closed request")
		return statusClientClosedRequest
	case errors.As(err, &ce):
		s.metrics.badRequests.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, "{\"error\":%q,\"field\":%q}\n", ce.Error(), ce.Field)
		return http.StatusBadRequest
	default:
		s.metrics.failed.Add(1)
		httpError(w, http.StatusInternalServerError, "simulation failed: %v", err)
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is nginx's 499: the client abandoned the
// request, nobody will read the response, but logs and metrics want a
// distinct code.
const statusClientClosedRequest = 499

// runOne executes one simulation as a one-point engine plan, so
// cancellation through the request context and panic isolation apply to
// single runs exactly as to named experiments.
func (s *Server) runOne(ctx context.Context, name, label string, run func() (*metrics.Result, error)) (*metrics.Result, error) {
	plan := engine.NewPlan[*metrics.Result](name)
	plan.Add(label, run)
	results, err := engine.Execute(plan, engine.Options{Workers: s.opts.Workers, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// execute runs the request on the engine. Named experiments execute their
// plan with the request context in engine.Options; single runs go through
// runOne.
func (s *Server) execute(ctx context.Context, cfg core.Config, entry *experiments.CatalogEntry, format experiments.Format) (body []byte, contentType string, err error) {
	if entry != nil {
		out, err := entry.Run(cfg, format, engine.Options{Workers: s.opts.Workers, Ctx: ctx})
		if err != nil {
			return nil, "", err
		}
		return []byte(out), format.ContentType(), nil
	}
	res, err := s.runOne(ctx, "serve/run", cfg.Label(), func() (*metrics.Result, error) { return core.Run(cfg) })
	if err != nil {
		return nil, "", err
	}
	s.metrics.simMicros.Add(int64(res.Makespan))
	switch format {
	case experiments.CSV:
		return []byte(experiments.SummaryCSV(res)), format.ContentType(), nil
	case experiments.Table:
		return []byte(experiments.SummaryTable(res)), format.ContentType(), nil
	default:
		return []byte(experiments.SummaryJSON(res)), format.ContentType(), nil
	}
}

// writeResult sends a (possibly cached) response body. Cache state rides in
// headers so hit and miss bodies stay byte-identical.
func (s *Server) writeResult(w http.ResponseWriter, key, cache, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("X-Cache", cache)
	h.Set("X-Key", key)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var items []item
	for _, e := range experiments.Catalog() {
		items = append(items, item{e.ID, e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(items)
}

// handlePolicies lists the scheduling-policy vocabulary: the built-in
// composite disciplines and the three component tables a ConfigSpec can
// compose freely (partition_policy, quantum_policy, queue_order).
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type catalog struct {
		Policies   []sched.PolicyInfo `json:"policies"`
		Partitions []sched.PolicyInfo `json:"partition_policies"`
		Quanta     []sched.PolicyInfo `json:"quantum_policies"`
		Orders     []sched.PolicyInfo `json:"queue_orders"`
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(catalog{
		Policies:   sched.Policies(),
		Partitions: sched.PartitionPolicies(),
		Quanta:     sched.QuantumPolicies(),
		Orders:     sched.QueueOrders(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.render(&b, s.adm, s.cache, s.store, s.draining.Load())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
