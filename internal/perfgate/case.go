package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Goals are the explicit targets a case declares for one machine class.
// Every field is a pointer: nil means "not declared", so a zero limit
// (max_allocs_per_op: 0) is expressible. Max* goals bound lower-is-better
// metrics, Min* goals floor higher-is-better ones; each names the
// measurement metric it checks (see Evaluate).
type Goals struct {
	MaxNsPerOp     *float64 `json:"max_ns_per_op,omitempty"`
	MaxAllocsPerOp *float64 `json:"max_allocs_per_op,omitempty"`
	MaxBPerOp      *float64 `json:"max_b_per_op,omitempty"`
	MaxPeakBytes   *float64 `json:"max_peak_bytes,omitempty"`
	MinSpeedup     *float64 `json:"min_speedup,omitempty"`
	MinEfficiency  *float64 `json:"min_efficiency,omitempty"`
	MaxP95Ms       *float64 `json:"max_p95_ms,omitempty"`
	MinJobsPerSec  *float64 `json:"min_jobs_per_sec,omitempty"`
}

// goalSpec binds one Goals field to the metric it checks and its
// direction.
type goalSpec struct {
	name   string // the JSON field name, used in reports
	metric string // the Measurement metric it checks
	min    bool   // true: value must be >= limit; false: <= limit
	limit  func(g Goals) *float64
}

var goalSpecs = []goalSpec{
	{"max_ns_per_op", "ns_per_op", false, func(g Goals) *float64 { return g.MaxNsPerOp }},
	{"max_allocs_per_op", "allocs_per_op", false, func(g Goals) *float64 { return g.MaxAllocsPerOp }},
	{"max_b_per_op", "b_per_op", false, func(g Goals) *float64 { return g.MaxBPerOp }},
	{"max_peak_bytes", "peak_bytes", false, func(g Goals) *float64 { return g.MaxPeakBytes }},
	{"min_speedup", "speedup", true, func(g Goals) *float64 { return g.MinSpeedup }},
	{"min_efficiency", "efficiency", true, func(g Goals) *float64 { return g.MinEfficiency }},
	{"max_p95_ms", "p95_ms", false, func(g Goals) *float64 { return g.MaxP95Ms }},
	{"min_jobs_per_sec", "jobs_per_sec", true, func(g Goals) *float64 { return g.MinJobsPerSec }},
}

// GoalCheck is the outcome of one declared goal against one measurement.
type GoalCheck struct {
	Goal   string  // JSON field name, e.g. "max_allocs_per_op"
	Metric string  // measured metric it checked
	Limit  float64 // declared bound
	Value  float64 // measured median
	OK     bool
	// Missing is set when the workload did not report the metric the
	// goal checks — a case-file bug, never a pass.
	Missing bool
}

func (c GoalCheck) String() string {
	op := "<="
	for _, s := range goalSpecs {
		if s.name == c.Goal && s.min {
			op = ">="
		}
	}
	if c.Missing {
		return fmt.Sprintf("%s=%g: metric %s not reported by workload", c.Goal, c.Limit, c.Metric)
	}
	return fmt.Sprintf("%s: %s=%g want %s %g", c.Goal, c.Metric, c.Value, op, c.Limit)
}

// Evaluate checks every declared goal against a flat metric map and
// returns one GoalCheck per declared goal.
func (g Goals) Evaluate(metrics map[string]float64) []GoalCheck {
	var checks []GoalCheck
	for _, s := range goalSpecs {
		limit := s.limit(g)
		if limit == nil {
			continue
		}
		v, ok := metrics[s.metric]
		check := GoalCheck{Goal: s.name, Metric: s.metric, Limit: *limit, Value: v, Missing: !ok}
		if ok {
			if s.min {
				check.OK = v >= *limit
			} else {
				check.OK = v <= *limit
			}
		}
		checks = append(checks, check)
	}
	return checks
}

// declared reports whether any goal field is set.
func (g Goals) declared() bool {
	for _, s := range goalSpecs {
		if s.limit(g) != nil {
			return true
		}
	}
	return false
}

// Case is one declarative performance check, loaded from a
// perf/cases/*.json file.
type Case struct {
	// Name is the case's ledger identity; baselines match on it, so it
	// must be stable across commits. Defaults to the filename stem.
	Name string `json:"name"`
	// Group batches cases for `cmd/perfgate -group` ("kernel", "proc", "fork",
	// "arrivals", "serve", "sweep").
	Group string `json:"group"`
	// Description is carried verbatim into ledger entries.
	Description string `json:"description"`
	// Workload names the registered body in perfgate/workloads.
	Workload string `json:"workload"`
	// Benchtime is either a duration ("100ms") — the harness grows the
	// iteration count until one trial runs at least that long — or a
	// fixed iteration count ("3x") for workloads whose cost is large and
	// known. Default "100ms".
	Benchtime string `json:"benchtime,omitempty"`
	// Warmup is the number of discarded leading trials (default 1);
	// Trials the number of measured ones (default 3, median taken).
	Warmup *int `json:"warmup,omitempty"`
	Trials int  `json:"trials,omitempty"`
	// TolerancePct is the regression tolerance against the ledger
	// baseline: the run fails only when a metric moves against its
	// direction by more than max(TolerancePct, measured noise). Default
	// 20 — shared CI hosts are loud.
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
	// Goals declares targets per machine class. Goals for the detected
	// class enforce (a miss fails the gate); goals for other classes are
	// advisory — reported as unattested, never failed — because this
	// host cannot measure them honestly.
	Goals map[Class]Goals `json:"goals"`
}

func (c *Case) withDefaults() {
	if c.Benchtime == "" {
		c.Benchtime = "100ms"
	}
	if c.Warmup == nil {
		one := 1
		c.Warmup = &one
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	if c.TolerancePct == 0 {
		c.TolerancePct = 20
	}
}

func (c *Case) validate() error {
	if c.Name == "" {
		return fmt.Errorf("case has no name")
	}
	if c.Workload == "" {
		return fmt.Errorf("case %s: no workload", c.Name)
	}
	if _, _, err := ParseBenchtime(c.Benchtime); err != nil {
		return fmt.Errorf("case %s: %w", c.Name, err)
	}
	if *c.Warmup < 0 {
		return fmt.Errorf("case %s: negative warmup %d", c.Name, *c.Warmup)
	}
	if c.Trials < 1 {
		return fmt.Errorf("case %s: trials %d < 1", c.Name, c.Trials)
	}
	if c.TolerancePct < 0 {
		return fmt.Errorf("case %s: negative tolerance_pct %g", c.Name, c.TolerancePct)
	}
	if len(c.Goals) == 0 {
		return fmt.Errorf("case %s: no goals for any machine class", c.Name)
	}
	for class, g := range c.Goals {
		if !ValidClass(class) {
			return fmt.Errorf("case %s: unknown machine class %q (known: %v)", c.Name, class, KnownClasses())
		}
		if !g.declared() {
			return fmt.Errorf("case %s: class %s declares no goals", c.Name, class)
		}
	}
	return nil
}

// ParseBenchtime parses a case benchtime: "Nx" fixes the iteration count,
// anything else must be a positive Go duration the harness scales trials
// to.
func ParseBenchtime(s string) (iters int, d time.Duration, err error) {
	if n, ok := strings.CutSuffix(s, "x"); ok {
		if _, err := fmt.Sscanf(n, "%d", &iters); err != nil || iters < 1 {
			return 0, 0, fmt.Errorf("invalid benchtime %q", s)
		}
		return iters, 0, nil
	}
	d, err = time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("invalid benchtime %q", s)
	}
	return 0, d, nil
}

// LoadCases reads every *.json case under dir, sorted by filename, with
// unknown fields rejected — a typoed "tolernace_pct" must not silently
// mean the default.
func LoadCases(dir string) ([]*Case, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("perfgate: no case files under %s", dir)
	}
	sort.Strings(paths)
	seen := map[string]string{}
	var cases []*Case
	for _, p := range paths {
		c, err := LoadCase(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[c.Name]; dup {
			return nil, fmt.Errorf("%s: case %q already defined in %s", p, c.Name, prev)
		}
		seen[c.Name] = p
		cases = append(cases, c)
	}
	return cases, nil
}

// LoadCase reads and validates one case file. A missing name defaults to
// the filename stem.
func LoadCase(path string) (*Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c Case
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing data after case object", path)
	}
	if c.Name == "" {
		c.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}
