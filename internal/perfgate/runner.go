package perfgate

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/perfgate/workloads"
)

// Measurement is one trial's flat metric map. Keys are ledger field
// names: ns_per_op, b_per_op and allocs_per_op always; workload-reported
// extras (speedup, efficiency, p95_ms, jobs_per_sec, req_per_sec,
// peak_bytes, workers, cores) when the body emits them.
type Measurement map[string]float64

// CaseRun is the measured outcome of one case on this host.
type CaseRun struct {
	Case   *Case
	Class  Class
	Host   Host
	Iters  int           // iterations per trial
	Trials []Measurement // one per measured trial
	// Median holds the per-metric median across trials — the numbers
	// goals and baselines are checked against.
	Median Measurement
	// NoisePct is the robust relative spread of ns_per_op across trials
	// (scaled MAD / median, in percent): the band inside which a delta
	// against the baseline means nothing.
	NoisePct float64
}

// benchB is the perfgate trial harness's implementation of workloads.B:
// a fixed iteration count, wall-clock and allocation baselines restartable
// via ResetTimer, and ReportMetric captured into the trial's metric map.
type benchB struct {
	n       int
	start   time.Time
	mem     runtime.MemStats
	metrics Measurement
}

// benchFatal carries a workload Fatalf out of the body via panic; the
// harness converts it back into an error.
type benchFatal struct{ err error }

func newBenchB(n int) *benchB {
	b := &benchB{n: n, metrics: Measurement{}}
	b.ResetTimer()
	return b
}

func (b *benchB) N() int { return b.n }

func (b *benchB) ResetTimer() {
	runtime.GC()
	runtime.ReadMemStats(&b.mem)
	b.start = time.Now()
}

func (b *benchB) ReportAllocs() {} // the harness always measures allocations

func (b *benchB) ReportMetric(n float64, unit string) { b.metrics[unit] = n }

func (b *benchB) Fatalf(format string, args ...any) {
	panic(benchFatal{fmt.Errorf(format, args...)})
}

// measureOnce runs one fixed-iteration trial and returns its metrics.
func measureOnce(fn workloads.Func, n int) (m Measurement, err error) {
	defer func() {
		if r := recover(); r != nil {
			if bf, ok := r.(benchFatal); ok {
				err = bf.err
				return
			}
			panic(r)
		}
	}()
	b := newBenchB(n)
	fn(b)
	elapsed := time.Since(b.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m = b.metrics
	m["ns_per_op"] = float64(elapsed.Nanoseconds()) / float64(n)
	m["b_per_op"] = float64(after.TotalAlloc-b.mem.TotalAlloc) / float64(n)
	m["allocs_per_op"] = float64(after.Mallocs-b.mem.Mallocs) / float64(n)
	return m, nil
}

// calibrate finds the iteration count for a duration-based benchtime by
// growing N geometrically until one run takes at least the target — the
// same shape testing.B uses, without its rounding niceties. The probe
// runs double as warmup.
func calibrate(fn workloads.Func, target time.Duration) (int, error) {
	n := 1
	for {
		m, err := measureOnce(fn, n)
		if err != nil {
			return 0, err
		}
		elapsed := time.Duration(m["ns_per_op"] * float64(n))
		if elapsed >= target || n >= 1e9 {
			return n, nil
		}
		// Predict the target N from the observed rate, with headroom and
		// a growth cap so one mispredicted step can't run for minutes.
		next := n * 100
		if elapsed > 0 {
			next = int(1.2 * float64(target) / (m["ns_per_op"]))
		}
		if next <= n {
			next = n + 1
		}
		if next > n*100 {
			next = n * 100
		}
		n = next
	}
}

// RunCase measures one case: warmup trials discarded, Trials measured at a
// fixed iteration count, per-metric medians and the ns_per_op noise band
// computed.
func RunCase(c *Case) (*CaseRun, error) {
	fn, ok := workloads.Lookup(c.Workload)
	if !ok {
		return nil, fmt.Errorf("case %s: unknown workload %q (have %v)", c.Name, c.Workload, workloads.Names())
	}
	iters, target, err := ParseBenchtime(c.Benchtime)
	if err != nil {
		return nil, fmt.Errorf("case %s: %w", c.Name, err)
	}
	if iters == 0 {
		if iters, err = calibrate(fn, target); err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
	}
	for i := 0; i < *c.Warmup; i++ {
		if _, err := measureOnce(fn, iters); err != nil {
			return nil, fmt.Errorf("case %s (warmup): %w", c.Name, err)
		}
	}
	run := &CaseRun{Case: c, Class: Detect(), Host: DetectHost(), Iters: iters}
	for i := 0; i < c.Trials; i++ {
		m, err := measureOnce(fn, iters)
		if err != nil {
			return nil, fmt.Errorf("case %s (trial %d): %w", c.Name, i, err)
		}
		run.Trials = append(run.Trials, m)
	}
	run.Median = medianMetrics(run.Trials)
	run.NoisePct = noisePct(metricSamples(run.Trials, "ns_per_op"))
	return run, nil
}

// medianMetrics takes the per-metric median across trials. A metric
// missing from some trials is medianed over the trials that have it.
func medianMetrics(trials []Measurement) Measurement {
	keys := map[string]bool{}
	for _, t := range trials {
		for k := range t {
			keys[k] = true
		}
	}
	med := Measurement{}
	for k := range keys {
		if s := metricSamples(trials, k); len(s) > 0 {
			med[k] = median(s)
		}
	}
	return med
}

func metricSamples(trials []Measurement, key string) []float64 {
	var s []float64
	for _, t := range trials {
		if v, ok := t[key]; ok {
			s = append(s, v)
		}
	}
	return s
}

func median(s []float64) float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// noisePct is the robust relative spread of a sample set: the median
// absolute deviation scaled to be comparable to a standard deviation
// (×1.4826 under normality), as a percentage of the median. One wild
// trial on a noisy shared host widens the band instead of poisoning the
// center.
func noisePct(s []float64) float64 {
	if len(s) < 2 {
		return 0
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	dev := make([]float64, len(s))
	for i, v := range s {
		dev[i] = math.Abs(v - med)
	}
	return 100 * 1.4826 * median(dev) / math.Abs(med)
}
