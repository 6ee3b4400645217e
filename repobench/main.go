// Command repobench is the repository benchmark. It runs one named
// workload for a measuring time, checks every output it produces, and
// prints the metrics as the last line of standard output: the end-to-end
// metrics by default, the per-layer metrics with -trace 1. Build and run it
// from the repository root with
//
//	bash repobench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// NOTES.md records why each workload exists, what each metric should move,
// and what the benchmark does not measure.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeed is the seed whose open-paper output is pinned in
// expected.json.
const defaultSeed = 1

// setupReps is how many times a run sets up at least; setup_s is the
// median over them.
const setupReps = 3

// workloadSpec describes one workload: what its operation is, which
// percentile op_tail_ms reports, and how a run drives it.
type workloadSpec struct {
	name  string
	op    string  // what one operation is, and how its latency is timed
	unit  string  // what throughput_per_cpu_s counts
	tailQ float64 // op_tail_ms is this quantile of the operation latencies
	run   func(r *runCtx) (*outcome, error)
	// bestRep reports each latency and the throughput from the run's best
	// rep instead of pooling the reps: a rep the host slowed is outvoted.
	bestRep bool
}

// workloadSpecs are the workloads the command runs. BENCHMARK.json gates
// campaign and open-paper only: schedd-mix measures wall-clock latency of
// a server saturating both cores, which on a shared virtual machine varied
// by more than its bound between identical runs (NOTES.md). It stays
// runnable by hand.
var workloadSpecs = []workloadSpec{
	{"campaign", "one closed 16-job batch (core.Run) of the f3-f6 campaign, in worker CPU time, fastest of the run's reps", "simulated jobs", 0.94, runWorkerReps, false},
	{"open-paper", "one 100-job open-system stream (core.Run), in worker CPU time", "simulated jobs", 0.9, runWorkerReps, false},
	{"schedd-mix", "one POST /v1/run request, hit or miss, in wall time from send to full reply, best rep", "requests", 0.99, runScheddMix, true},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runCtx is one benchmark run's settings.
type runCtx struct {
	spec     workloadSpec
	seed     int64
	seconds  time.Duration
	traced   bool
	self     string // this binary, for worker reps
	schedd   string // the schedd binary
	out      string // directory for profiles and the span file
	expected string // expectations file overriding the embedded one
	exp      *expectations
	log      io.Writer // human-readable report lines
}

// outcome is what a run measured, merged over its reps. Costs are in CPU
// time of the simulating process wherever the benchmark can observe it, so
// that time the host steals from this machine does not count: operation
// latencies of worker reps, set-up, and throughput. schedd-mix request
// latencies are the wall time the client waited.
type outcome struct {
	setupS    []float64   // per rep: CPU seconds from launch to the first operation
	setupWall []float64   // per rep: the same in wall seconds (report lines only)
	rssMB     []float64   // per rep: peak RSS of the simulating process
	opsMS     []float64   // reported operation latencies
	repOps    [][]float64 // the same, per rep
	repRate   []float64   // per rep: work per CPU second of the simulating process
	wallRate  []float64   // per rep: work per wall second (report lines only)
	work      int64       // simulated jobs or requests completed
	wallS     float64     // wall time spent measuring
	attempted int64
	failed    int64
	failures  []string
	layer     map[string]float64 // traced runs only
	spans     []span
	extra     []string // workload-specific report lines
}

// merge folds one worker rep into the outcome.
func (o *outcome) merge(rep *repReport) {
	o.setupS = append(o.setupS, rep.SetupCPUS)
	o.setupWall = append(o.setupWall, rep.SetupS)
	o.rssMB = append(o.rssMB, rep.RSSMB)
	o.opsMS = append(o.opsMS, rep.OpsCPUMS...)
	o.addWork(rep.Jobs, rep.CPUS, rep.WallS)
	o.attempted += rep.Attempted
	o.failed += rep.Failed
	o.failures = append(o.failures, rep.Failures...)
	o.spans = appendSpans(o.spans, rep.Spans)
}

// addWork records one rep's completed work and the CPU and wall time it
// took.
func (o *outcome) addWork(work int64, cpuS, wallS float64) {
	o.work += work
	o.wallS += wallS
	o.repRate = append(o.repRate, float64(work)/cpuS)
	o.wallRate = append(o.wallRate, float64(work)/wallS)
}

// throughput is the median rep's work per CPU second.
func (o *outcome) throughput() float64 { return median(o.repRate) }

//go:embed expected.json
var embeddedExpected []byte

// expectations are the pinned outputs the checks compare against.
type expectations struct {
	// Campaign maps f3..f6 to the sha256 of the rendered table plus a
	// newline, exactly as `ippsbench -run <id> -j 1 -q` prints it.
	Campaign  map[string]string `json:"campaign"`
	OpenPaper struct {
		// MsgsPerJob is the number of messages every open-paper job sends.
		MsgsPerJob int64 `json:"msgs_per_job"`
		// DefaultSeedOp0 is operation 0's summary under the default seed.
		DefaultSeedOp0 openSummary `json:"default_seed_op0"`
	} `json:"open_paper"`
}

func loadExpectations(path string) (*expectations, error) {
	data := embeddedExpected
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var e expectations
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expectations: %w", err)
	}
	return &e, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line and returns the exit code. A run whose
// checks fail still prints its result line, with correct false, and exits
// 1; a run that cannot measure at all prints no result line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: campaign, open-paper or schedd-mix")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	schedd := fs.String("schedd", "", "schedd binary (schedd-mix)")
	out := fs.String("out", filepath.Join(".bench_build", "repobench"), "directory for profiles and span files")
	expected := fs.String("expected", "", "expectations file replacing the built-in one")
	if len(args) > 0 && strings.TrimLeft(args[0], "-") == "worker" {
		if err := workerMain(args, stdout); err != nil {
			fmt.Fprintln(stderr, "repobench worker:", err)
			return 1
		}
		return 0
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "repobench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "repobench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	exp, err := loadExpectations(*expected)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	absOut, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(absOut, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	r := &runCtx{spec: spec, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, self: self, schedd: *schedd, out: absOut, expected: *expected,
		exp: exp, log: stdout}
	res, err := measure(r)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload and assembles the result line.
func measure(r *runCtx) (*result, error) {
	prov := currentProvenance(r)
	provLine, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.log, "provenance %s\n", provLine)
	o, err := r.spec.run(r)
	if err != nil {
		return nil, err
	}
	for _, f := range o.failures {
		fmt.Fprintf(r.log, "FAILED %s\n", f)
	}
	values := map[string]float64{}
	defs := endToEnd
	if r.traced {
		defs = perLayer
		for k, v := range o.layer {
			values[k] = v
		}
		if err := runProbes(values); err != nil {
			return nil, err
		}
		path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.json", r.spec.name, r.seed))
		if err := writeTrace(path, prov, o.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(r.log, "spans %d written to %s\n", len(o.spans), path)
	} else {
		if err := endToEndValues(r.spec, o, values); err != nil {
			return nil, err
		}
	}
	for _, line := range o.extra {
		fmt.Fprintln(r.log, line)
	}
	failRatio := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Fprintf(r.log, "%-28s %14.6g %s\n", "fail_ratio", failRatio, "ratio")
	m, err := fill(defs, values)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		fmt.Fprintf(r.log, "%-28s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
	if o.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// endToEndValues computes the end-to-end metrics of an untraced run.
func endToEndValues(spec workloadSpec, o *outcome, values map[string]float64) error {
	samples := [][]float64{o.opsMS}
	if spec.bestRep {
		samples = o.repOps
	}
	var p50s, tails []float64
	for _, ops := range samples {
		if n, need := len(ops), minSamples(spec.tailQ); n < need {
			return fmt.Errorf("%d operations, need %d for a p%g with %d beyond it", n, need, 100*spec.tailQ, minBeyond)
		}
		p50s = append(p50s, median(ops))
		tails = append(tails, quantile(ops, spec.tailQ))
	}
	values["setup_s"] = median(o.setupS)
	values["throughput_per_cpu_s"] = o.throughput()
	values["op_p50_ms"] = slices.Min(p50s)
	values["op_tail_ms"] = slices.Min(tails)
	if spec.bestRep {
		values["throughput_per_cpu_s"] = slices.Max(o.repRate)
	}
	values["peak_rss_mb"] = median(o.rssMB)
	for _, v := range values {
		if v <= 0 || math.IsNaN(v) {
			return fmt.Errorf("end-to-end metrics must be positive: %v", values)
		}
	}
	o.extra = append(o.extra,
		fmt.Sprintf("operation: %s; throughput counts %s", spec.op, spec.unit),
		fmt.Sprintf("samples: %d operations in %d reps, at least %d beyond op_tail_ms (p%g); %d set-ups, median %.4g s wall",
			len(o.opsMS), len(samples), minBeyondOf(samples, spec.tailQ), 100*spec.tailQ, len(o.setupS), median(o.setupWall)))
	return nil
}

// minBeyondOf is the smallest count of samples beyond the q-quantile over
// the sample sets.
func minBeyondOf(sets [][]float64, q float64) int {
	n := -1
	for _, s := range sets {
		if b := beyond(s, q); n < 0 || b < n {
			n = b
		}
	}
	return n
}

// provenance identifies where and on what a result was measured, so that a
// number from one host is not compared as-is with one from another.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func currentProvenance(r *runCtx) provenance {
	return provenance{
		Workload:   r.spec.name,
		Seed:       r.seed,
		Seconds:    int(r.seconds / time.Second),
		Traced:     r.traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}
