package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// schedd-mix drives a real schedd server, started with default flags on a
// loopback port, with closed-loop clients: each sends its next request only
// after reading the previous reply, as the cluster coordinator does.
const (
	scheddClients = 2   // closed-loop clients, the host's core count when sized
	scheddMissP   = 0.2 // share of requests carrying a fresh seed
)

// scheddGrid is the 96-config paper grid requests are drawn from:
// partition 2/4/8/16 × linear/ring/mesh × static/ts × matmul/sort ×
// fixed/adaptive.
func scheddGrid() []serve.ConfigSpec {
	var grid []serve.ConfigSpec
	for _, p := range []int{2, 4, 8, 16} {
		for _, topo := range []string{"linear", "ring", "mesh"} {
			for _, policy := range []string{"static", "ts"} {
				for _, app := range []string{"matmul", "sort"} {
					for _, arch := range []string{"fixed", "adaptive"} {
						grid = append(grid, serve.ConfigSpec{Partition: p, Topology: topo,
							Policy: policy, App: app, Arch: arch})
					}
				}
			}
		}
	}
	return grid
}

// scheddRequest is one request a client sends.
type scheddRequest struct {
	config int  // index into the grid
	miss   bool // carries a fresh seed, so the cache cannot answer it
	body   []byte
}

// requestPicker draws one client's request sequence from the workload
// seed: a uniform grid config, and with probability scheddMissP a fresh
// simulation seed (unique per rep and client) instead of the warmed one.
type requestPicker struct {
	rng      *rand.Rand
	grid     []serve.ConfigSpec
	warmed   [][]byte // request bodies of the warmed configs
	seedBase int64
	client   int
	n        int64
}

func newRequestPicker(seed int64, rep, client int, grid []serve.ConfigSpec, warmed [][]byte) *requestPicker {
	return &requestPicker{rng: rand.New(rand.NewSource(opSeed(seed, 1000*rep+client))),
		grid: grid, warmed: warmed, seedBase: opSeed(seed, rep), client: client}
}

func (p *requestPicker) next() scheddRequest {
	req := scheddRequest{config: p.rng.Intn(len(p.grid)), miss: p.rng.Float64() < scheddMissP}
	req.body = p.warmed[req.config]
	if req.miss {
		spec := p.grid[req.config]
		spec.Seed = p.seedBase + 2*p.n + int64(p.client)
		req.body = requestBody(spec)
	}
	p.n++
	return req
}

func requestBody(spec serve.ConfigSpec) []byte {
	b, err := json.Marshal(serve.RunRequest{Config: spec})
	if err != nil {
		panic(err) // a ConfigSpec always marshals
	}
	return b
}

// runScheddMix computes the expected body of every grid config in this
// process, then runs setupReps server reps (a traced run: one untraced and
// one traced). Each rep starts a fresh server, warms all 96 configs, and
// drives the request mix for its share of the measuring time.
func runScheddMix(r *runCtx) (*outcome, error) {
	if r.schedd == "" {
		return nil, errors.New("schedd-mix needs -schedd <binary>")
	}
	grid := scheddGrid()
	var tr *tracer
	var acc *layerAcc
	var before, after runtime.MemStats
	if r.traced {
		tr, acc = newTracer(), newLayerAcc()
		runtime.ReadMemStats(&before)
	}
	want := make([][]byte, len(grid))
	var refJobs int64
	for i, spec := range grid {
		cfg, err := spec.ToConfig()
		if err != nil {
			return nil, err
		}
		name := "core.Run " + spec.Policy
		s := tr.start(int64(i+1), 0, name)
		t0 := time.Now()
		res, err := core.Run(cfg)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", cfg.Label(), err)
		}
		if acc != nil {
			acc.add(name, ms, res)
		}
		refJobs += int64(len(res.Jobs))
		want[i] = []byte(experiments.SummaryJSON(res))
	}
	if r.traced {
		runtime.ReadMemStats(&after)
	}

	reps := setupReps
	if r.traced {
		reps = 2
	}
	plain, traced := &outcome{}, &outcome{}
	var hitMS, missMS []float64
	var tracedSimMS, tracedLatencyMS float64
	var deltas map[string]float64
	var profile string
	for i := 0; i < reps; i++ {
		isTraced := r.traced && i == 1
		o := plain
		var prof string
		if isTraced {
			o = traced
			prof = filepath.Join(r.out, fmt.Sprintf("cpu-%s-seed%d-rep%d.pprof", r.spec.name, r.seed, i))
			profile = prof
		}
		rep, err := scheddRep(r, grid, want, i, r.seconds/time.Duration(reps), prof, isTraced)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, rep.setupCPU)
		o.setupWall = append(o.setupWall, rep.setupS)
		o.rssMB = append(o.rssMB, rep.rssMB)
		o.addWork(int64(len(rep.hitMS)+len(rep.missMS)), rep.driveCPU, rep.driveS)
		o.attempted += rep.attempted
		o.failed += rep.failed
		o.failures = append(o.failures, rep.failures...)
		ops := append(append([]float64(nil), rep.hitMS...), rep.missMS...)
		o.opsMS = append(o.opsMS, ops...)
		o.repOps = append(o.repOps, ops)
		o.spans = appendSpans(o.spans, rep.spans)
		if isTraced {
			deltas = rep.deltas
			for _, ms := range append(rep.hitMS, rep.missMS...) {
				tracedLatencyMS += ms
			}
			tracedSimMS = deltas["schedd_sim_wall_seconds_total"] * 1e3
		} else {
			hitMS = append(hitMS, rep.hitMS...)
			missMS = append(missMS, rep.missMS...)
		}
		fmt.Fprintf(r.log, "rep %d traced=%v: setup %.4fs (server %.4fs CPU), %d hits + %d misses in %.3fs (server %.3fs CPU), server peak RSS %.1f MB\n",
			i, isTraced, rep.setupS, rep.setupCPU, len(rep.hitMS), len(rep.missMS), rep.driveS, rep.driveCPU, rep.rssMB)
	}
	plain.extra = append(plain.extra,
		fmt.Sprintf("%-28s %14.6g %s", "req_per_s", median(plain.wallRate), "1/s (wall, median rep)"),
		latencyLine("hit", hitMS), latencyLine("miss", missMS))
	if !r.traced {
		return plain, nil
	}

	out := traced
	out.extra = plain.extra
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.failures = append(out.failures, plain.failures...)
	out.spans = appendSpans(out.spans, tr.spans)
	out.layer = map[string]float64{}
	acc.finish(out.layer)
	jobs := float64(max(refJobs, 1))
	out.layer["host.allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / jobs
	out.layer["host.alloc_kb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / jobs
	out.layer["host.gc_cycles"] = float64(after.NumGC - before.NumGC)
	// Share of the client-observed request time the server spent outside
	// simulation: parsing, cache, admission, encoding and the network.
	out.layer["experiments.self_share"] = (tracedLatencyMS - tracedSimMS) / tracedLatencyMS
	// schedd's own /metrics over the traced drive phase. schedd-mix is not
	// a gated workload (see NOTES.md), so these are report lines only.
	durSum := deltas["schedd_request_duration_seconds_sum"]
	simWall := deltas["schedd_sim_wall_seconds_total"]
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"serve.hit_ratio", deltas["schedd_cache_hits_total"] / max(deltas["schedd_requests_total"], 1)},
		{"serve.overhead_ms_per_req", 1e3 * (durSum - simWall) / max(deltas["schedd_request_duration_seconds_count"], 1)},
		{"serve.sim_wall_share", simWall / durSum},
		{"serve.rejected", deltas["schedd_rejected_total"]},
	} {
		out.extra = append(out.extra, fmt.Sprintf("%-28s %14.6g", m.name, m.v))
	}
	shares, err := profileShares(profile)
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		out.layer["prof."+l+"_pct"] = v
	}
	out.layer["trace_overhead_pct"] = 100 * (plain.throughput()/traced.throughput() - 1)
	return out, nil
}

// latencyLine reports one request class's median and p99 with the sample
// counts behind them.
func latencyLine(class string, ms []float64) string {
	return fmt.Sprintf("%-28s %14.6g ms  %s_p99_ms %.6g ms  (%d samples, %d beyond p99)",
		class+"_p50_ms", median(ms), class, quantile(ms, 0.99), len(ms), beyond(ms, 0.99))
}

// scheddRepResult is what one server rep measured.
type scheddRepResult struct {
	setupS, driveS     float64 // wall seconds
	setupCPU, driveCPU float64 // server CPU seconds
	rssMB              float64
	hitMS, missMS      []float64
	attempted, failed  int64
	failures           []string
	deltas             map[string]float64 // /metrics over the drive phase
	spans              []span
}

// scheddRep starts a server, warms the grid, drives the mix for budget and
// stops the server.
func scheddRep(r *runCtx, grid []serve.ConfigSpec, want [][]byte, rep int, budget time.Duration,
	profile string, traced bool) (*scheddRepResult, error) {
	res := &scheddRepResult{}
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		res.failed++
		if len(res.failures) < 20 {
			res.failures = append(res.failures, fmt.Sprintf(format, args...))
		}
	}
	start := time.Now()
	srv, err := startSchedd(r.schedd, profile)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: scheddClients}, Timeout: 2 * time.Minute}
	url := "http://" + srv.addr + "/v1/run"

	// Warm: every grid config once, so later repeats hit the cache.
	hitBodies := make([][]byte, len(grid))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < scheddClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(grid) {
					return
				}
				hitBodies[i] = requestBody(grid[i])
				body, cache, err := post(client, url, hitBodies[i])
				switch {
				case err != nil:
					fail("warm %d: %v", i, err)
				case cache != "miss":
					fail("warm %d: X-Cache %q on a fresh server", i, cache)
				case !bytes.Equal(body, want[i]):
					fail("warm %d: body differs from the in-process core.Run summary", i)
				}
			}
		}()
	}
	wg.Wait()
	res.setupS = time.Since(start).Seconds()
	res.attempted = int64(len(grid))
	setupCPU, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	res.setupCPU = setupCPU.Seconds()

	before, err := scrape(client, srv.addr)
	if err != nil {
		return nil, err
	}
	driveStart := time.Now()
	var misses atomic.Int64
	// Every rep needs enough requests for its own p99, and the run enough
	// misses for a miss p99 (report lines).
	minMisses := int64(minSamples(0.99)+setupReps-1) / setupReps
	type clientResult struct {
		hitMS, missMS []float64
		spans         []span
	}
	results := make([]clientResult, scheddClients)
	for c := 0; c < scheddClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pick := newRequestPicker(r.seed, rep, c, grid, hitBodies)
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			cr := &results[c]
			for n := int64(0); time.Since(driveStart) < budget || misses.Load() < minMisses; n++ {
				req := pick.next()
				root := tr.start(n+1, 0, "request")
				t0 := time.Now()
				rt := tr.start(n+1, root.id(), "roundtrip")
				body, cache, err := post(client, url, req.body)
				tr.end(rt)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				check := tr.start(n+1, root.id(), "check")
				wantCache := "hit"
				if req.miss {
					wantCache = "miss"
					misses.Add(1)
					cr.missMS = append(cr.missMS, ms)
				} else {
					cr.hitMS = append(cr.hitMS, ms)
				}
				switch {
				case err != nil:
					fail("config %d: %v", req.config, err)
				case cache != wantCache:
					fail("config %d: X-Cache %q, want %q", req.config, cache, wantCache)
				case !bytes.Equal(body, want[req.config]):
					fail("config %d (%s): body differs from the warmed body", req.config, wantCache)
				}
				tr.end(check)
				tr.end(root)
			}
			if tr != nil {
				cr.spans = tr.spans
			}
		}(c)
	}
	wg.Wait()
	res.driveS = time.Since(driveStart).Seconds()
	driveCPU, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	res.driveCPU = (driveCPU - setupCPU).Seconds()
	for _, cr := range results {
		res.hitMS = append(res.hitMS, cr.hitMS...)
		res.missMS = append(res.missMS, cr.missMS...)
		res.spans = appendSpans(res.spans, cr.spans)
	}
	res.attempted += int64(len(res.hitMS) + len(res.missMS))
	after, err := scrape(client, srv.addr)
	if err != nil {
		return nil, err
	}
	res.deltas = map[string]float64{}
	for k, v := range after {
		res.deltas[k] = v - before[k]
	}
	client.CloseIdleConnections()
	stopped = true
	if res.rssMB, err = srv.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// post sends one run request and returns the body and X-Cache header of a
// 200 reply.
func post(client *http.Client, url string, body []byte) ([]byte, string, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, truncate(string(b), 200))
	}
	return b, resp.Header.Get("X-Cache"), nil
}

// scrape reads schedd's /metrics into name -> value (unlabelled series).
func scrape(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// scheddProc is a running schedd server.
type scheddProc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when the server's stderr reaches EOF
}

// startSchedd starts a server on a free loopback port and waits until it
// logs its listening address. Its request log is read and dropped.
func startSchedd(bin, profile string) (*scheddProc, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &scheddProc{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			var rec struct{ Msg, Addr string }
			if !sent && json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "schedd listening" {
				addr <- rec.Addr
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case p.addr = <-addr:
		return p, nil
	case <-p.drained:
	case <-ctx.Done():
	}
	p.kill()
	return nil, fmt.Errorf("schedd %s did not report a listening address", bin)
}

// cpu is the user plus system CPU time the server has used so far, from
// the kernel's per-process accounting in clock ticks (USER_HZ, 100 on
// Linux).
func (p *scheddProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("schedd CPU time: %w", err)
	}
	// Fields after the parenthesised command name start at field 3.
	fields := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("schedd CPU time: short /proc stat line %q", b)
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedd CPU time: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// stop sends SIGTERM, waits for the drain, and returns the server's peak
// RSS in MiB.
func (p *scheddProc) stop() (float64, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, err
	}
	select {
	case <-p.drained:
	case <-time.After(60 * time.Second):
		p.kill()
		return 0, errors.New("schedd did not exit after SIGTERM")
	}
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("schedd exit: %w", err)
	}
	return peakRSSMB(p.cmd.ProcessState), nil
}

// kill ends the server at once and reaps it.
func (p *scheddProc) kill() {
	p.cmd.Process.Kill()
	<-p.drained
	p.cmd.Wait()
}
