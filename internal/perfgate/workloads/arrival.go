package workloads

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// openConfig is the flat-memory open-system gate shape: static 1-node
// partitions (one loader and one compute process per job, no quantum
// rotation), Poisson arrivals at a stable ρ=0.5.
func openConfig(jobs int64) core.Config {
	ac := workload.DefaultAppCost()
	return core.Config{
		PartitionSize: 1,
		Topology:      topology.Mesh,
		Policy:        sched.Static,
		Arch:          workload.Adaptive,
		AppCost:       &ac,
		Arrival:       arrival.Spec{Kind: arrival.Poisson, Jobs: jobs, Load: 0.5},
	}
}

// ArrivalThroughput measures the open-system streaming path on the
// cheapest representative configuration and reports simulated jobs per
// wall-clock second — the headline number for the millions-of-jobs goal.
// Memory stays flat by design; allocs/op is the tripwire for per-job
// retention creeping back in.
func ArrivalThroughput(b B) {
	b.ReportAllocs()
	const jobs = 20000
	cfg := openConfig(jobs)
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		start := time.Now()
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatalf("open run: %v", err)
		}
		elapsed += time.Since(start)
		if res.Open == nil || res.Open.Jobs != jobs {
			b.Fatalf("open summary missing or short: %+v", res.Open)
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)*float64(b.N())/s, "jobs_per_sec")
	}
}

// OpenPeakRSS streams one million Poisson jobs through the scheduler while
// sampling the live heap, and reports the peak retained set as
// "peak_bytes" — the machine-checked form of the open-system subsystem's
// bounded-memory claim. A per-job leak of even one pointer-sized cell
// moves this number by megabytes, so the case goal has a wide margin for
// GC timing but a tight one for retention growth.
func OpenPeakRSS(b B) {
	const jobs = 1_000_000
	cfg := openConfig(jobs)
	var peak uint64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		var res *metrics.Result
		var err error
		start := time.Now()
		p := PeakHeapDuring(func() {
			res, err = core.Run(cfg)
		})
		elapsed += time.Since(start)
		if err != nil {
			b.Fatalf("open run: %v", err)
		}
		if res.Open == nil || res.Open.Jobs != jobs {
			b.Fatalf("open summary missing or short: %+v", res.Open)
		}
		if p > peak {
			peak = p
		}
	}
	b.ReportMetric(float64(peak), "peak_bytes")
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)*float64(b.N())/s, "jobs_per_sec")
	}
}

// PeakHeapDuring runs f while sampling the live heap, returning the peak
// growth of the live set over its size just before f, in bytes. Each
// sample forces a GC and reads the bytes that GC marked live
// (/gc/heap/live:bytes). HeapAlloc would also count what f allocated
// between the GC's end and the read, so it would track the allocation
// rate, not the retained set; and the absolute live heap would also count
// what earlier work in the same process still holds, so a perfgate run
// would read differently depending on which cases ran before. The
// open-gate integration test measures with it too.
func PeakHeapDuring(f func()) uint64 {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() uint64 {
		runtime.GC()
		rtmetrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	base := live()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if v := live(); v > base && v-base > peak.Load() {
				peak.Store(v - base)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}()
	f()
	close(stop)
	<-done
	return peak.Load()
}
