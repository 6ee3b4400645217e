package experiments

import (
	"strings"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
)

// TestOpenSweepClaims encodes the E15 phenomenon at a test-sized grid: every
// zoo contender gets a row per load, response times are positive, and pushing
// the load toward saturation cannot make time-shared's mean response better.
func TestOpenSweepClaims(t *testing.T) {
	loads := []float64{0.5, 0.9}
	base := core.Config{Arrival: arrival.Spec{Jobs: 300}}
	cells, err := OpenSweep(base, loads)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * len(loads); len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	type key struct {
		label string
		load  float64
	}
	byKey := map[key]OpenCell{}
	for _, c := range cells {
		if c.Mean <= 0 || c.P50 <= 0 || c.P99 < c.P50 {
			t.Errorf("%s @ %.2f: degenerate summary %+v", c.Label, c.Load, c)
		}
		if c.Jobs != 300*openReplications {
			t.Errorf("%s @ %.2f: jobs %d, want %d", c.Label, c.Load, c.Jobs, 300*openReplications)
		}
		if c.JobsPerSec <= 0 {
			t.Errorf("%s @ %.2f: throughput %.2f", c.Label, c.Load, c.JobsPerSec)
		}
		byKey[key{c.Label, c.Load}] = c
	}
	lo, hi := byKey[key{"time-shared", 0.5}], byKey[key{"time-shared", 0.9}]
	if hi.Mean < lo.Mean {
		t.Errorf("time-shared mean improved under heavier load: %v @0.5 vs %v @0.9", lo.Mean, hi.Mean)
	}
	// The headline E15 claims at the heavy end: past time-sharing's
	// saturation knee the malleable equipartition still answers in seconds,
	// and SRPT ordering keeps static's median flat while FCFS's blows up.
	if equi, ts := byKey[key{"equi/none/fcfs", 0.9}], byKey[key{"time-shared", 0.9}]; equi.Mean >= ts.Mean {
		t.Errorf("equi mean %v not below saturated time-shared %v at ρ=0.9", equi.Mean, ts.Mean)
	}
	if srpt, static := byKey[key{"static/none/srpt", 0.9}], byKey[key{"static", 0.9}]; srpt.P50 > static.P50 {
		t.Errorf("srpt p50 %v above static p50 %v at ρ=0.9", srpt.P50, static.P50)
	}
	if !strings.Contains(OpenSweepTable(cells), "E15") {
		t.Error("table header missing")
	}
	if csv := openView.render(cells, CSV); !strings.HasPrefix(csv, "policy,rho,jobs,") {
		t.Errorf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

// TestOpenSweepRejectsOwnedAxis: the sweep owns the load axis and the
// arrival process must be generative.
func TestOpenSweepRejectsOwnedAxis(t *testing.T) {
	if _, err := OpenSweep(core.Config{Arrival: arrival.Spec{Load: 0.7}}, nil); err == nil {
		t.Error("preset load accepted")
	}
	if _, err := OpenSweep(core.Config{Arrival: arrival.Spec{Kind: arrival.Trace, TracePath: "x.jsonl"}}, nil); err == nil {
		t.Error("trace arrival accepted")
	}
}
