package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tables must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	for _, c := range []struct {
		label string
		json  []struct{ Name, Unit string }
		table []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.label, len(c.json), len(c.table))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.table[i].name || m.Unit != c.table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					c.label, i, m.Name, m.Unit, c.table[i].name, c.table[i].unit)
			}
		}
	}
}

func TestTailPercentileHasTenBeyond(t *testing.T) {
	for _, q := range []float64{0.9, 0.94, 0.99} {
		n := minSamples(q)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if got := beyond(xs, q); got != minBeyond {
			t.Errorf("q=%g n=%d: %d samples beyond, want %d", q, n, got, minBeyond)
		}
		if got := quantile(xs, q); got != float64(n-minBeyond) {
			t.Errorf("q=%g n=%d: quantile %g, want %d", q, n, got, n-minBeyond)
		}
		if got := beyond(xs[:n-1], q); got >= minBeyond {
			t.Errorf("q=%g n=%d: %d beyond with one sample fewer", q, n-1, got)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Kernel).Run":          "sim",
		"repro/internal/stats/stream.(*Digest).Add": "stats",
		"repro/internal/serve.(*Server).serveKeyed": "serve",
		"fmt.Sprintf":                                   "fmt",
		"strconv.formatBits":                            "fmt",
		"runtime.chanrecv":                              "rt_sched",
		"runtime.newstack":                              "rt_sched",
		"runtime.mallocgc":                              "rt_alloc",
		"runtime.gcDrain":                               "rt_gc",
		"runtime.scanobject":                            "rt_gc",
		"runtime.memmove":                               "",
		"encoding/json.(*decodeState).object":           "",
		"repro/internal/sched.(*System).dispatch.func1": "sched",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileSharesReadsARealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	var sink []string
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink = append(sink[:0], fmt.Sprintf("%d %s %v", len(sink), "x", 1.5))
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range profLayers {
		v, ok := shares[l]
		if !ok || v < 0 {
			t.Errorf("layer %s: %v %v", l, v, ok)
		}
		sum += v
	}
	if sum > 100.0001 {
		t.Errorf("layer shares sum to %g%%", sum)
	}
	if shares["fmt"] == 0 {
		t.Errorf("a Sprintf loop shows no fmt time: %v", shares)
	}
}

func TestSeedDrivesRequestsAndStreams(t *testing.T) {
	grid := scheddGrid()
	if len(grid) != 96 {
		t.Fatalf("grid has %d configs, want 96", len(grid))
	}
	warmed := make([][]byte, len(grid))
	for i, spec := range grid {
		warmed[i] = requestBody(spec)
	}
	sequence := func(seed int64) string {
		p := newRequestPicker(seed, 0, 0, grid, warmed)
		var b strings.Builder
		misses := 0
		for i := 0; i < 200; i++ {
			req := p.next()
			if req.miss {
				misses++
				if bytes.Equal(req.body, warmed[req.config]) {
					t.Fatalf("seed %d: a miss request repeats the warmed body", seed)
				}
			}
			fmt.Fprintf(&b, "%s;", req.body)
		}
		if misses == 0 || misses == 200 {
			t.Errorf("seed %d: %d misses in 200 requests", seed, misses)
		}
		return b.String()
	}
	if sequence(1) != sequence(1) {
		t.Error("one seed gave two request sequences")
	}
	if sequence(1) == sequence(2) {
		t.Error("seeds 1 and 2 gave the same request sequence")
	}

	summary := func(seed int64) string {
		res, err := core.Run(openPaperConfig(opSeed(seed, 0)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Open.String()
	}
	if summary(1) == summary(2) {
		t.Error("seeds 1 and 2 gave the same open-paper stream")
	}
}

// The tests below build the benchmark and schedd and run the real command.

func buildBinaries(t *testing.T) (bench, schedd string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the benchmark end to end")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), ".", "repro/cmd/schedd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return filepath.Join(dir, "repobench"), filepath.Join(dir, "schedd")
}

// runBench runs one workload and returns the exit code and result line.
func runBench(t *testing.T, bench, schedd, workload string, seed int64, trace int, extra ...string) (int, result, string) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1",
		"--trace", fmt.Sprint(trace), "-schedd", schedd, "-out", t.TempDir()}, extra...)
	cmd := exec.Command(bench, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v\nstderr:\n%s", workload, lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stdout.String()
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bench, schedd := buildBinaries(t)
	bj := loadBenchmarkJSON(t)
	for _, w := range workloadSpecs {
		for trace, defs := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
			// Seed 7 is not the pinned default: the campaign checks must
			// hold whatever the seed.
			code, res, out := runBench(t, bench, schedd, w.name, 7, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, result %+v\n%s", w.name, trace, code, res, out)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestWrongExpectationFailsTheRun(t *testing.T) {
	bench, schedd := buildBinaries(t)
	exp, err := loadExpectations("")
	if err != nil {
		t.Fatal(err)
	}
	exp.Campaign["f4"] = strings.Repeat("0", 64)
	b, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, res, out := runBench(t, bench, schedd, "campaign", 1, 0, "-expected", path)
	if code == 0 || res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("wrong f4 digest: exit %d, result correct=%v failed=%d attempted=%d\n%s",
			code, res.Correct, res.Failed, res.Attempted, out)
	}
	if !strings.Contains(out, "FAILED f4: rendered table sha256") {
		t.Errorf("output does not name the failed check:\n%s", out)
	}
}
