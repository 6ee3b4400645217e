package perfgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/perfgate/workloads"
)

func writeCase(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every shipped case must load, name a registered workload, and use a
// known group — the go-test-time guarantee that `make perf-gate` cannot
// discover a broken case file first.
func TestRepoCasesLoadAndResolve(t *testing.T) {
	cases, err := LoadCases("../../perf/cases")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no cases under perf/cases")
	}
	groups := map[string]bool{"kernel": true, "proc": true, "sweep": true, "fork": true, "arrivals": true, "serve": true}
	for _, c := range cases {
		if _, ok := workloads.Lookup(c.Workload); !ok {
			t.Errorf("case %s: workload %q not registered (have %v)", c.Name, c.Workload, workloads.Names())
		}
		if !groups[c.Group] {
			t.Errorf("case %s: group %q is not one of the cmd/perfgate -group values", c.Name, c.Group)
		}
	}
}

func TestLoadCaseDefaults(t *testing.T) {
	dir := t.TempDir()
	path := writeCase(t, dir, "churn.json", `{
	  "workload": "kernel-churn", "group": "kernel",
	  "goals": {"ci-1core": {"max_ns_per_op": 100}}
	}`)
	c, err := LoadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "churn" {
		t.Errorf("name %q, want filename stem \"churn\"", c.Name)
	}
	if c.Benchtime != "100ms" || *c.Warmup != 1 || c.Trials != 3 || c.TolerancePct != 20 {
		t.Errorf("defaults benchtime=%s warmup=%d trials=%d tol=%g, want 100ms/1/3/20",
			c.Benchtime, *c.Warmup, c.Trials, c.TolerancePct)
	}
}

func TestLoadCaseRejections(t *testing.T) {
	goals := `"goals": {"ci-1core": {"max_ns_per_op": 100}}`
	cases := []struct {
		name, content, want string
	}{
		{"unknown field", `{"workload": "w", "tolernace_pct": 5, ` + goals + `}`, "unknown field"},
		{"no workload", `{` + goals + `}`, "no workload"},
		{"no goals", `{"workload": "w"}`, "no goals"},
		{"empty class goals", `{"workload": "w", "goals": {"ci-1core": {}}}`, "declares no goals"},
		{"unknown class", `{"workload": "w", "goals": {"cray": {"max_ns_per_op": 1}}}`, "unknown machine class"},
		{"bad benchtime", `{"workload": "w", "benchtime": "fast", ` + goals + `}`, "invalid benchtime"},
		{"negative tolerance", `{"workload": "w", "tolerance_pct": -5, ` + goals + `}`, "negative tolerance_pct"},
	}
	for _, tc := range cases {
		path := writeCase(t, t.TempDir(), "case.json", tc.content)
		_, err := LoadCase(path)
		if err == nil {
			t.Errorf("%s: loaded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// Two case files claiming one name would make ledger baselines ambiguous.
func TestLoadCasesRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	body := `{"name": "dup", "workload": "w", "goals": {"ci-1core": {"max_ns_per_op": 1}}}`
	writeCase(t, dir, "a.json", body)
	writeCase(t, dir, "b.json", body)
	if _, err := LoadCases(dir); err == nil || !strings.Contains(err.Error(), "already defined") {
		t.Fatalf("duplicate case names loaded: %v", err)
	}
}

func TestParseBenchtime(t *testing.T) {
	if iters, d, err := ParseBenchtime("5x"); err != nil || iters != 5 || d != 0 {
		t.Errorf("5x -> (%d, %v, %v), want (5, 0, nil)", iters, d, err)
	}
	if iters, d, err := ParseBenchtime("250ms"); err != nil || iters != 0 || d != 250*time.Millisecond {
		t.Errorf("250ms -> (%d, %v, %v), want (0, 250ms, nil)", iters, d, err)
	}
	for _, bad := range []string{"", "0x", "-1x", "x", "-3s", "fast"} {
		if _, _, err := ParseBenchtime(bad); err == nil {
			t.Errorf("ParseBenchtime(%q) accepted", bad)
		}
	}
}

func TestGoalsEvaluate(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	g := Goals{
		MaxNsPerOp:     f(100),
		MaxAllocsPerOp: f(0), // a zero limit must be expressible and enforced
		MinSpeedup:     f(2),
		MinEfficiency:  f(0.5),
		MaxP95Ms:       f(10), // not reported by the workload below
	}
	checks := g.Evaluate(map[string]float64{
		"ns_per_op":     80,
		"allocs_per_op": 0.5,
		"speedup":       2.0,
		"efficiency":    0.45,
	})
	byGoal := map[string]GoalCheck{}
	for _, c := range checks {
		byGoal[c.Goal] = c
	}
	if len(checks) != 5 {
		t.Fatalf("%d checks, want 5 (one per declared goal)", len(checks))
	}
	if c := byGoal["max_ns_per_op"]; !c.OK || c.Missing {
		t.Errorf("max_ns_per_op: %+v, want ok (80 <= 100)", c)
	}
	if c := byGoal["max_allocs_per_op"]; c.OK {
		t.Errorf("max_allocs_per_op: %+v, want miss (0.5 > 0)", c)
	}
	if c := byGoal["min_speedup"]; !c.OK {
		t.Errorf("min_speedup: %+v, want ok (2.0 >= 2, floors are inclusive)", c)
	}
	if c := byGoal["min_efficiency"]; c.OK {
		t.Errorf("min_efficiency: %+v, want miss (0.45 < 0.5)", c)
	}
	if c := byGoal["max_p95_ms"]; !c.Missing || c.OK {
		t.Errorf("max_p95_ms: %+v, want Missing (metric never reported, never a pass)", c)
	}
}
