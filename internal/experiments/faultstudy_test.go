package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// runSmallStudy runs a scaled-down fault study: 8 processors, 6 synthetic
// 60ms jobs, one faulty ladder point. Small enough that the study's many
// inner runs stay fast.
func runSmallStudy(t *testing.T, kind topology.Kind) *FaultStudy {
	t.Helper()
	works := make([]sim.Time, 6)
	for i := range works {
		works[i] = 60 * sim.Millisecond
	}
	batch := workload.SyntheticBatch(works, workload.Adaptive, 256, 1024, workload.DefaultAppCost())
	study, err := RunFaultStudy(FaultStudyConfig{
		Base:     core.Config{Processors: 8, PartitionSize: 4, Seed: 5, Batch: batch},
		Topology: kind,
		Policies: []sched.Policy{sched.Static, sched.TimeShared},
		MTBFs:    []sim.Time{150 * sim.Millisecond},
		Horizon:  400 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// TestFaultStudyZeroRateMatchesBaseline: RunFaultStudy itself verifies that
// the zero-rate point (injector attached, nothing armed) reproduces the
// fault-free result exactly and errors otherwise, so a successful study on
// two topologies is the guarantee under test. The faulty point must show
// real fault activity so the comparison is not vacuous.
func TestFaultStudyZeroRateMatchesBaseline(t *testing.T) {
	for _, kind := range []topology.Kind{topology.Mesh, topology.Ring} {
		t.Run(kind.String(), func(t *testing.T) {
			study := runSmallStudy(t, kind)
			if len(study.Curves) != 2 {
				t.Fatalf("curves = %d, want 2", len(study.Curves))
			}
			for _, c := range study.Curves {
				if len(c.Points) != 2 {
					t.Fatalf("%s: points = %d, want 2 (zero-rate + one faulty)", c.Policy, len(c.Points))
				}
				z := c.Points[0]
				if z.Rate != 0 || z.NodeMTBF != 0 {
					t.Errorf("%s: first point is not the zero-rate point: %+v", c.Policy, z)
				}
				if z.Faults != (metrics.FaultStats{}) {
					t.Errorf("%s: zero-rate point has fault activity: %+v", c.Policy, z.Faults)
				}
				f := c.Points[1]
				if f.Faults.NodesFailed == 0 {
					t.Errorf("%s: faulty point saw no node failures: %+v", c.Policy, f.Faults)
				}
			}
		})
	}
}

// TestFaultStudyDeterministic: the whole study, twice, byte-identical.
func TestFaultStudyDeterministic(t *testing.T) {
	a := runSmallStudy(t, topology.Mesh)
	b := runSmallStudy(t, topology.Mesh)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical fault studies diverged:\n%+v\n%+v", a, b)
	}
}

func TestFaultStudyRenderers(t *testing.T) {
	s := runSmallStudy(t, topology.Ring)
	tb := s.Table()
	if !strings.Contains(tb, "static") || !strings.Contains(tb, "time-shared") {
		t.Errorf("table missing policy rows:\n%s", tb)
	}
	csv := faultCSV(s)
	if got, want := strings.Count(csv, "\n"), 1+2*2; got != want {
		t.Errorf("csv has %d lines, want %d (header + 2 policies x 2 points):\n%s", got, want, csv)
	}
}

// faultCSV renders one study the way cmd/faultstudy -format csv does.
func faultCSV(s *FaultStudy) string {
	d := newDoc(CSV, FaultCols)
	s.Rows(d)
	return d.String()
}
