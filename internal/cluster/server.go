package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/engine"
	"repro/internal/serve"
)

// ServerOptions tunes a coordinator Server.
type ServerOptions struct {
	// Coordinator routes proxied requests; required.
	Coordinator *Coordinator
	// LeaseTTL bounds how long a worker stays routable without renewing
	// (default 10s; renew interval is TTL/3 on the worker side).
	LeaseTTL time.Duration
	// SweepEvery is the lapsed-lease sweep period (default LeaseTTL/2).
	SweepEvery time.Duration
	// Logger receives registration and proxy events; nil uses slog.Default().
	Logger *slog.Logger
}

// Server is the coordinator's HTTP face: the worker registration/lease
// protocol plus an affinity proxy for the two simulation endpoints, so a
// client that only knows the coordinator still gets cache-affine routing,
// failover and hedging. Tools that want per-point progress use the
// Coordinator client directly; the proxy is for everything else (curl, a
// dashboard, a CI probe).
type Server struct {
	coord *Coordinator
	reg   *registry
	log   *slog.Logger

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewServer builds a coordinator Server. The registry feeds fleet changes
// straight into the coordinator's routing table.
func NewServer(opts ServerOptions) *Server {
	if opts.Coordinator == nil {
		panic("cluster: ServerOptions.Coordinator is required")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.SweepEvery <= 0 {
		opts.SweepEvery = opts.LeaseTTL / 2
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	s := &Server{
		coord: opts.Coordinator,
		log:   opts.Logger,
		stop:  make(chan struct{}),
	}
	s.reg = newRegistry(opts.LeaseTTL, func(workers []string) {
		s.coord.SetWorkers(workers)
		s.log.Info("cluster fleet changed", slog.Int("workers", len(workers)))
	})
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(opts.SweepEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.reg.sweep()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Close stops the lease sweeper.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.done.Wait()
}

// Handler returns the coordinator's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/workers/register", s.handleRegister)
	mux.HandleFunc("/v1/workers/renew", s.handleRenew)
	mux.HandleFunc("/v1/workers/deregister", s.handleDeregister)
	mux.HandleFunc("/v1/workers", s.handleWorkers)
	mux.HandleFunc("/v1/run", s.handleProxy)
	mux.HandleFunc("/v1/point", s.handleProxy)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// workerRef is the body of the three lease endpoints: the worker's
// advertised base URL.
type workerRef struct {
	Addr string `json:"addr"`
}

func decodeWorkerRef(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return "", false
	}
	var ref workerRef
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<10)).Decode(&ref); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return "", false
	}
	ref.Addr = strings.TrimRight(ref.Addr, "/")
	if !validWorkerAddr(ref.Addr) {
		httpError(w, http.StatusBadRequest, "addr must be an http(s) base URL, got %q", ref.Addr)
		return "", false
	}
	return ref.Addr, true
}

// validWorkerAddr accepts an http(s) URL with a host and no control
// characters. The address becomes a routing key and a /metrics label
// value, so one malformed registration must not break every scrape.
func validWorkerAddr(addr string) bool {
	if strings.IndexFunc(addr, unicode.IsControl) >= 0 {
		return false
	}
	u, err := url.Parse(addr)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	addr, ok := decodeWorkerRef(w, r)
	if !ok {
		return
	}
	ttl := s.reg.register(addr)
	s.log.Info("worker registered", slog.String("addr", addr))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"addr\":%q,\"ttl_ms\":%d}\n", addr, ttl.Milliseconds())
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	addr, ok := decodeWorkerRef(w, r)
	if !ok {
		return
	}
	if !s.reg.renew(addr) {
		// Lease lapsed (a long GC pause, a partition): tell the worker to
		// re-register rather than silently re-granting, so the fleet-change
		// notification fires and routing picks the worker back up.
		httpError(w, http.StatusNotFound, "no live lease for %q, re-register", addr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"addr\":%q,\"ttl_ms\":%d}\n", addr, s.reg.ttl.Milliseconds())
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	addr, ok := decodeWorkerRef(w, r)
	if !ok {
		return
	}
	s.reg.deregister(addr)
	s.log.Info("worker deregistered", slog.String("addr", addr))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	workers := s.reg.workers()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Workers []string `json:"workers"`
	}{workers})
}

// handleProxy routes a simulation request through the coordinator: the
// request body is parsed just enough to compute the same content address
// the worker will use, then shipped to the rendezvous-ranked worker with
// the full retry/hedge machinery. The response bytes come back verbatim,
// so proxied and direct answers are byte-identical.
func (s *Server) handleProxy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	key, contentType, err := requestKey(r.URL.Path, body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.coord.Do(r.Context(), engine.RemotePoint{
		Label: r.URL.Path, Key: key, Path: r.URL.Path, Body: body,
	})
	if err != nil {
		var perm *permanentError
		switch {
		case errors.As(err, &perm):
			httpError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, errNoWorkers):
			httpError(w, http.StatusServiceUnavailable, "no workers registered")
		default:
			httpError(w, http.StatusBadGateway, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(resp)
}

// requestKey computes the routing key for a proxied request — the same
// content address the worker caches under, so the proxy inherits affinity —
// plus the response media type the worker would have sent.
func requestKey(path string, body []byte) (key, contentType string, err error) {
	switch path {
	case "/v1/point":
		req, err := serve.ParsePointRequestBytes(body)
		if err != nil {
			return "", "", err
		}
		cfg, err := req.Config.ToConfig()
		if err != nil {
			return "", "", err
		}
		h, err := cfg.Hash()
		if err != nil {
			return "", "", err
		}
		return serve.PointKey(h), "application/json", nil
	default:
		req, err := serve.ParseRunRequestBytes(body)
		if err != nil {
			return "", "", err
		}
		_, _, format, key, err := req.Resolve()
		if err != nil {
			return "", "", err
		}
		return key, format.ContentType(), nil
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"workers\":%d}\n", len(s.reg.workers()))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.coord.WriteMetrics(&b)
	serve.NewExposition(&b).Gauge("cluster_workers", "Live worker leases.", int64(len(s.reg.workers())))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// httpError mirrors serve's uniform JSON error body.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf(format, args...))
}
