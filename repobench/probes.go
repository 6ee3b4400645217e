package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/perfgate/workloads"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats/stream"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Layer probes time isolated calls into one module's public API. The
// bodies follow perfgate's workloads.B shape, and the kernel and comm
// probes are perfgate's own kernel-churn and all-to-all-16 bodies.

// probeB runs a body for a fixed iteration count, as perfgate's harness
// does: wall time and heap allocations from ResetTimer to return.
type probeB struct {
	n     int
	start time.Time
	mem   runtime.MemStats
}

type probeFatal struct{ err error }

func (b *probeB) N() int { return b.n }
func (b *probeB) ResetTimer() {
	runtime.GC()
	runtime.ReadMemStats(&b.mem)
	b.start = time.Now()
}
func (b *probeB) ReportAllocs()                {}
func (b *probeB) ReportMetric(float64, string) {}
func (b *probeB) Fatalf(format string, args ...any) {
	panic(probeFatal{fmt.Errorf(format, args...)})
}

// probeTrial runs fn once at n iterations and returns ns and allocs per
// iteration.
func probeTrial(fn workloads.Func, n int) (ns, allocs float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			pf, ok := r.(probeFatal)
			if !ok {
				panic(r)
			}
			err = pf.err
		}
	}()
	b := &probeB{n: n}
	b.ResetTimer()
	fn(b)
	elapsed := time.Since(b.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-b.mem.Mallocs) / float64(n), nil
}

// probe calibrates n so one trial takes about probeTarget, then returns the
// median ns and allocs per iteration over probeTrials trials.
func probe(fn workloads.Func) (ns, allocs float64, err error) {
	n := 1
	for {
		ns, _, err := probeTrial(fn, n)
		if err != nil {
			return 0, 0, err
		}
		if time.Duration(ns*float64(n)) >= probeTarget/4 || n >= 1<<30 {
			n = max(1, int(float64(probeTarget)/ns))
			break
		}
		n *= 10
	}
	var nss, as []float64
	for i := 0; i < probeTrials; i++ {
		ns, a, err := probeTrial(fn, n)
		if err != nil {
			return 0, 0, err
		}
		nss, as = append(nss, ns), append(as, a)
	}
	return median(nss), median(as), nil
}

const (
	probeTarget = 100 * time.Millisecond
	probeTrials = 3
)

// runProbes measures every layer probe into values.
func runProbes(values map[string]float64) error {
	a2aMsgs, a2aHops := allToAllCounts()
	for _, p := range []struct {
		fn         workloads.Func
		ns, allocs string
		per        float64 // operations per iteration
		scale      float64 // ns -> reported unit
	}{
		{workloads.KernelEventChurn, "sim.event_ns", "sim.event_allocs", 1, 1},
		{procHandoff, "sim.handoff_ns", "sim.handoff_allocs", 1, 1},
		{cpuBurst, "machine.burst_ns", "machine.burst_allocs", 1, 1},
		{mmuAlloc, "mem.alloc_ns", "", 1, 1},
		{mmuWait, "mem.wait_ns", "", 1, 1},
		{workloads.AllToAll16, "comm.msg_ns", "comm.msg_allocs", a2aMsgs, 1},
		{arrivalNext, "arrival.next_ns", "", 1, 1},
		{digestAdd, "stats.digest_add_ns", "", 1, 1},
		{serveResolve, "serve.resolve_us", "", 1, 1e-3},
		{serveSummary, "serve.summary_us", "", 1, 1e-3},
	} {
		ns, allocs, err := probe(p.fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.ns, err)
		}
		values[p.ns] = ns / p.per * p.scale
		if p.allocs != "" {
			values[p.allocs] = allocs / p.per
		}
		if p.ns == "comm.msg_ns" {
			values["comm.hop_ns"] = ns / a2aHops
		}
	}
	return nil
}

// allToAllCounts is the message and link-hop count of one all-to-all-16
// iteration: every ordered pair of the 16-node mesh exchanges one message
// along its shortest path.
func allToAllCounts() (msgs, hops float64) {
	g := topology.MustBuild(topology.Mesh, 16)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				msgs++
				hops += float64(g.Dist(s, d))
			}
		}
	}
	return msgs, hops
}

// procHandoff is one Proc.Wake -> Park round trip: a kernel event wakes a
// parked process, which parks again at once.
func procHandoff(b workloads.B) {
	k := sim.NewKernel(1)
	n := b.N()
	p := k.Spawn("handoff", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park("probe")
		}
	})
	var tick func()
	left := n
	tick = func() {
		if left > 0 {
			left--
			p.Wake()
			k.AfterFunc(1, tick)
		}
	}
	b.ResetTimer()
	k.AfterFunc(1, tick)
	k.Run()
	if !p.Finished() {
		b.Fatalf("handoff process parked after %d wakes", n)
	}
	k.Shutdown()
}

// cpuBurst is one Task.Compute call on a node where two low-priority tasks
// time-slice: each burst spans three quanta of the other task's turns.
func cpuBurst(b workloads.B) {
	k := sim.NewKernel(1)
	cpu := machine.NewCPU(k, 0, sim.Millisecond)
	n := b.N()
	for _, name := range []string{"a", "b"} {
		task := cpu.NewTask(name, machine.PriLow)
		calls := n / 2
		if name == "a" {
			calls = n - n/2
		}
		k.Spawn(name, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				task.Compute(p, 3*sim.Millisecond)
			}
		})
	}
	b.ResetTimer()
	k.Run()
	if got, want := cpu.Stats().Busy(), sim.Time(n)*3*sim.Millisecond; got != want {
		b.Fatalf("CPU busy %v after %d bursts, want %v", got, n, want)
	}
	k.Shutdown()
}

// mmuAlloc is one MMU.Alloc that fits, plus the FreeBytes that returns it.
func mmuAlloc(b workloads.B) {
	k := sim.NewKernel(1)
	m := mem.New(k, 0, mem.NodeMemory)
	n := b.N()
	k.Spawn("alloc", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m.Alloc(p, 4096, mem.ClassBuffer)
			m.FreeBytes(4096)
		}
	})
	b.ResetTimer()
	k.Run()
	if m.Used() != 0 {
		b.Fatalf("MMU holds %d bytes after balanced alloc/free", m.Used())
	}
	k.Shutdown()
}

// mmuWait is one MMU.Alloc that finds memory full and parks until a
// FreeBytes, one simulated microsecond later, grants it.
func mmuWait(b workloads.B) {
	k := sim.NewKernel(1)
	m := mem.New(k, 0, mem.NodeMemory)
	n := b.N()
	free := func() { m.FreeBytes(mem.NodeMemory) }
	k.Spawn("wait", func(p *sim.Proc) {
		m.Alloc(p, mem.NodeMemory, mem.ClassData)
		for i := 0; i < n; i++ {
			k.AfterFunc(1, free)
			m.Alloc(p, mem.NodeMemory, mem.ClassData)
		}
		m.FreeBytes(mem.NodeMemory)
	})
	b.ResetTimer()
	k.Run()
	if st := m.Stats(); st.BlockedAllocs != int64(n) {
		b.Fatalf("%d blocked allocations, want %d", st.BlockedAllocs, n)
	}
	k.Shutdown()
}

// arrivalNext is one Source.Next of the open-paper arrival stream.
func arrivalNext(b workloads.B) {
	spec := arrival.Spec{Kind: arrival.Poisson, Jobs: int64(b.N()), Load: openPaperLoad}
	src, err := arrival.NewSource(spec, 1, openPaperPartition, workload.DefaultAppCost())
	if err != nil {
		b.Fatalf("arrival source: %v", err)
	}
	defer src.Close()
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		if _, ok := src.Next(); !ok {
			b.Fatalf("source ended after %d of %d jobs", i, b.N())
		}
	}
}

// digestAdd is one stream.Digest.Add of a response-time-like value.
func digestAdd(b workloads.B) {
	d := stream.NewDigest(0)
	b.ResetTimer()
	x := 1.0
	for i := 0; i < b.N(); i++ {
		x = x*1.000037 + 17
		if x > 1e9 {
			x = 1
		}
		d.Add(x)
	}
	if d.N() != int64(b.N()) {
		b.Fatalf("digest holds %d of %d values", d.N(), b.N())
	}
}

// probeRequest is a schedd-mix request body (a 16-node time-sharing config).
var probeRequest = requestBody(serve.ConfigSpec{Partition: 16, Topology: "linear", Policy: "ts", App: "matmul", Arch: "adaptive"})

// serveResolve is one request parse plus Resolve: validation and the
// canonical content hash the cache is keyed on.
func serveResolve(b workloads.B) {
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		req, err := serve.ParseRunRequestBytes(probeRequest)
		if err != nil {
			b.Fatalf("parse: %v", err)
		}
		if _, _, _, key, err := req.Resolve(); err != nil || key == "" {
			b.Fatalf("resolve: %q %v", key, err)
		}
	}
}

// serveSummary is one PointSummaryFrom plus its JSON encoding, the work a
// schedd point reply does after the simulation.
func serveSummary(b workloads.B) {
	req, err := serve.ParseRunRequestBytes(probeRequest)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	cfg, _, _, _, err := req.Resolve()
	if err != nil {
		b.Fatalf("resolve: %v", err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		b.Fatalf("run: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		if _, err := json.Marshal(serve.PointSummaryFrom(res)); err != nil {
			b.Fatalf("encode: %v", err)
		}
	}
}
