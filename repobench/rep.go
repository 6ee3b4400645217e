package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// A rep is one fresh process that sets up and then measures: the
// benchmark times its set-up from launch to its "ready" line, takes its
// peak RSS from the kernel's accounting when it exits, and reads its
// operations from its last line. Campaign and open-paper reps are
// worker processes of this binary; schedd-mix reps are schedd servers.

// workerArgs configures one worker process.
type workerArgs struct {
	workload string
	seed     int64
	traced   bool
	budget   time.Duration // keep starting operations for this long...
	minOps   int           // ...and until this many have run
	profile  string        // CPU profile path of a traced rep
}

func (a workerArgs) flags() []string {
	return []string{"-worker", a.workload, "-seed", fmt.Sprint(a.seed),
		"-trace", fmt.Sprint(boolInt(a.traced)), "-budget", a.budget.String(),
		"-min-ops", fmt.Sprint(a.minOps), "-profile", a.profile}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// repReport is what one rep measured.
type repReport struct {
	OpsMS     []float64          `json:"ops_ms"`     // wall time per operation
	OpsCPUMS  []float64          `json:"ops_cpu_ms"` // process CPU time per operation
	Jobs      int64              `json:"jobs"`       // simulated jobs completed
	WallS     float64            `json:"wall_s"`     // wall time spent measuring
	CPUS      float64            `json:"cpu_s"`      // process CPU time spent measuring
	Attempted int64              `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	Failed    int64              `json:"failed"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Spans     []span             `json:"spans,omitempty"`

	SetupCPUS float64 `json:"setup_cpu_s"` // process CPU time at "ready"

	// Filled in by the launching process.
	SetupS float64 `json:"-"` // wall time from launch to "ready"
	RSSMB  float64 `json:"-"`
}

// worker is the state of one worker process's rep.
type worker struct {
	args workerArgs
	exp  *expectations
	out  io.Writer
	tr   *tracer   // nil when untraced
	acc  *layerAcc // nil when untraced

	// repReport.Layer is nil when untraced.
	repReport
}

// ready marks the end of set-up.
func (w *worker) ready() {
	w.SetupCPUS = processCPU().Seconds()
	fmt.Fprintln(w.out, "ready")
}

// op records one completed operation's latency.
func (w *worker) op(ms, cpuMS float64) {
	w.OpsMS = append(w.OpsMS, ms)
	w.OpsCPUMS = append(w.OpsCPUMS, cpuMS)
	w.Attempted++
}

// measured records the time spent measuring since start.
func (w *worker) measured(start stamp) {
	ms, cpuMS := start.since()
	w.WallS, w.CPUS = ms/1e3, cpuMS/1e3
}

// stamp is an instant in wall time and in this process's CPU time (all
// threads, so the garbage collector's work counts).
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), processCPU()} }

// since returns the wall and CPU milliseconds elapsed since s.
func (s stamp) since() (wallMS, cpuMS float64) {
	return float64(time.Since(s.wall).Nanoseconds()) / 1e6,
		float64((processCPU() - s.cpu).Nanoseconds()) / 1e6
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fail records n failed operations and why.
func (w *worker) fail(n int, format string, args ...any) {
	w.Failed += int64(n)
	w.Failures = append(w.Failures, fmt.Sprintf(format, args...))
}

// observe feeds one core.Run span and its result into the layer metrics.
func (w *worker) observe(name string, ms float64, res *metrics.Result) {
	if w.acc != nil {
		w.acc.add(name, ms, res)
	}
}

// workerMain runs one rep in this process and prints its report.
func workerMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repobench -worker", flag.ContinueOnError)
	var a workerArgs
	var traced int
	fs.StringVar(&a.workload, "worker", "", "workload of this rep")
	fs.Int64Var(&a.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&traced, "trace", 0, "1 records spans, allocations and a CPU profile")
	fs.DurationVar(&a.budget, "budget", 0, "time to keep starting operations")
	fs.IntVar(&a.minOps, "min-ops", 0, "operations to run at least")
	fs.StringVar(&a.profile, "profile", "", "CPU profile path of a traced rep")
	expected := fs.String("expected", "", "expectations file replacing the built-in one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exp, err := loadExpectations(*expected)
	if err != nil {
		return err
	}
	a.traced = traced == 1
	w := &worker{args: a, exp: exp, out: out}
	var body func(*worker) error
	switch a.workload {
	case "campaign":
		body = campaignRep
	case "open-paper":
		body = openPaperRep
	default:
		return fmt.Errorf("no worker for workload %q", a.workload)
	}
	var before runtime.MemStats
	if a.traced {
		w.tr = newTracer()
		w.acc = newLayerAcc()
		w.Layer = map[string]float64{}
		f, err := os.Create(a.profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		runtime.ReadMemStats(&before)
	}
	if err := body(w); err != nil {
		return err
	}
	if a.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		pprof.StopCPUProfile()
		w.acc.finish(w.Layer)
		jobs := float64(max(w.Jobs, 1))
		w.Layer["host.allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / jobs
		w.Layer["host.alloc_kb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / jobs
		w.Layer["host.gc_cycles"] = float64(after.NumGC - before.NumGC)
		w.Spans = w.tr.spans
	}
	b, err := json.Marshal(w.repReport)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// startWorker runs one worker rep of this binary and returns its report.
func startWorker(self string, a workerArgs, expectedPath string) (*repReport, error) {
	args := a.flags()
	if expectedPath != "" {
		args = append(args, "-expected", expectedPath)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	var setup time.Duration
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" && setup == 0 {
			setup = time.Since(start)
			continue
		}
		last = line
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Drain so the worker cannot block on a full pipe, then reap it.
		io.Copy(io.Discard, stdout)
	}
	waitErr := cmd.Wait()
	if scanErr != nil {
		return nil, fmt.Errorf("%s worker output: %w", a.workload, scanErr)
	}
	if waitErr != nil {
		return nil, fmt.Errorf("%s worker: %w", a.workload, waitErr)
	}
	if setup == 0 {
		return nil, errors.New(a.workload + " worker never reported ready")
	}
	var rep repReport
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("%s worker report %q: %w", a.workload, truncate(last, 200), err)
	}
	rep.SetupS = setup.Seconds()
	rep.RSSMB = peakRSSMB(cmd.ProcessState)
	return &rep, nil
}

// peakRSSMB is an exited process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// layerAcc accumulates the per-layer metrics of a traced rep from the
// core.Run spans the rep records and the results they return.
type layerAcc struct {
	runMS                            map[string][]float64
	jobs, procs, msgs, hops, payload int64
	preempt, quantumExp, memBlocked  int64
}

func newLayerAcc() *layerAcc { return &layerAcc{runMS: map[string][]float64{}} }

// add records one core.Run: name ends in "static" or "ts".
func (a *layerAcc) add(name string, ms float64, res *metrics.Result) {
	policy := name[strings.LastIndex(name, " ")+1:]
	a.runMS[policy] = append(a.runMS[policy], ms)
	jobs := int64(len(res.Jobs))
	for _, j := range res.Jobs {
		a.procs += int64(j.Processes)
	}
	if res.Open != nil {
		// Open runs keep no per-job records; every job of the open-paper
		// configuration runs one process per partition node.
		jobs = res.Open.Jobs
		a.procs += jobs * int64(openPaperPartition)
	}
	a.jobs += jobs
	a.msgs += res.Net.Messages
	a.hops += res.Net.Hops
	a.payload += res.Net.PayloadBytes
	for _, n := range res.Nodes {
		a.preempt += n.Preemptions
		a.quantumExp += n.QuantumExpiries
		a.memBlocked += n.MemBlockedAllocs
	}
}

// finish writes the accumulated metrics into layer. Medians of policies
// the rep never ran are 0.
func (a *layerAcc) finish(layer map[string]float64) {
	for _, p := range []string{"static", "ts"} {
		layer["core.run_ms."+p] = 0
		if ms := a.runMS[p]; len(ms) > 0 {
			layer["core.run_ms."+p] = median(ms)
		}
	}
	jobs := float64(max(a.jobs, 1))
	layer["count.procs_per_job"] = float64(a.procs) / jobs
	layer["count.msgs_per_job"] = float64(a.msgs) / jobs
	layer["count.hops_per_job"] = float64(a.hops) / jobs
	layer["count.payload_kb_per_job"] = float64(a.payload) / 1024 / jobs
	layer["count.preempt_per_job"] = float64(a.preempt) / jobs
	layer["count.quantum_exp_per_job"] = float64(a.quantumExp) / jobs
	layer["count.mem_blocked_per_job"] = float64(a.memBlocked) / jobs
}
