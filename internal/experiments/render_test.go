package experiments

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The render pins: fixed fixture results for every catalog experiment, the
// single-run summary and the fault-study documents, rendered as table, CSV
// and JSON and compared byte-for-byte against testdata/render. No
// simulation runs, so every rendered byte of every experiment is checked in
// milliseconds. The testdata was generated once from the historical
// per-experiment exporters and is never regenerated: a diff here is a
// change to a published output format.

// Fixture values are deliberately uneven (sub-millisecond times, fractions
// that round, a zero denominator, a label that needs CSV quoting) so each
// formatting rule shows in the pinned bytes.
var (
	fxFigure = &Figure{
		ID: "Figure X", Title: "fixture figure",
		Cells: []Cell{
			{Label: "4M", PartitionSize: 4, Topology: topology.Mesh,
				Static: 2*sim.Second + 123456, StaticBest: sim.Second + 7, StaticWorst: 3*sim.Second + 246905,
				TS: 4*sim.Second + 999, TSMemBlocked: 500*sim.Millisecond + 1, TSOverheadFrac: 0.123456},
			{Label: "16L", PartitionSize: 16, Topology: topology.Linear, TS: sim.Second / 3},
		},
	}
	fxVariance = []VariancePoint{
		{CV: 0, Static: sim.Second, TS: 2 * sim.Second},
		{CV: 1.555, Static: 1234567, TS: 7654321},
	}
	fxAblation = []AblationCell{
		{Label: "16L", SAF: sim.Second, WH: sim.Second / 2, SAFBlock: 3 * sim.Second, WHBlock: 17},
		{Label: "4M", SAF: 0, WH: 1},
	}
	fxQuantum = []QuantumPoint{
		{Q: 2000, TS: sim.Second, OverheadFrac: 0.1},
		{Q: 500 * sim.Millisecond, TS: 98765432, OverheadFrac: 0.00005},
	}
	fxRR = &RRComparisonResult{
		RRJobSmall: sim.Second, RRProcSmall: 2*sim.Second + 5,
		RRJobBig: 3 * sim.Second, RRProcBig: sim.Second / 7,
	}
	fxMPL = []MPLPoint{
		{MaxResident: 0, Mean: sim.Second, MemBlocked: 0},
		{MaxResident: 4, Mean: 3333333, MemBlocked: 250 * sim.Millisecond},
	}
	fxLoad = []LoadPoint{
		{Rho: 0.3, Static4: sim.Second, Hybrid4: 2 * sim.Second, Dynamic: 1500 * sim.Millisecond, MaxRelCI: 0.02},
		{Rho: 0.855, Static4: 12345678, Hybrid4: 0, Dynamic: 7},
	}
	fxGang = []GangCell{
		{App: "stencil", RRJob: 2 * sim.Second, Gang: sim.Second, RRJobOvh: 0.5, GangOverhead: 0.25},
		{App: "matmul", RRJob: 0, Gang: 333, RRJobOvh: 0.00049, GangOverhead: 1},
	}
	fxStencil = []StencilCell{
		{Label: "8L", Static: sim.Second, TS: 3 * sim.Second, TSAvgLat: 1500},
		{Label: "8M", Static: 0, TS: 1, TSAvgLat: 0},
	}
	fxScale = []ScaleCell{
		{Machine: 16, Static: sim.Second, TS: 2 * sim.Second, TSMemBlock: 100, TSOverhead: 0.125},
		{Machine: 64, Static: 0, TS: 4444444, TSMemBlock: 0, TSOverhead: 0},
	}
	fxBroadcast = []BroadcastCell{
		{Label: "16M fixed", Seq: 2 * sim.Second, Tree: sim.Second + 1},
		{Label: "4L", Seq: 0, Tree: 55},
	}
	fxSortAlg = []SortAlgCell{
		{Algorithm: "selection", PartitionSize: 4, Fixed: 8 * sim.Second, Adaptive: 3 * sim.Second},
		{Algorithm: "merge", PartitionSize: 16, Fixed: 1234, Adaptive: 0},
	}
	fxCollective = []CollectiveCell{
		{Label: "8H", Single: sim.Second, TS: 5 * sim.Second, AvgHops: 1.5},
		{Label: "8L", Single: 1, TS: 0, AvgHops: 2.3456},
	}
	fxZoo = []ZooCell{
		{Label: "static", Mean: sim.Second, P95: 2 * sim.Second, Makespan: 3 * sim.Second, Util: 0.75, Overhead: 0.01},
		{Label: `buddy/"dyn",srpt`, Mean: 1, P95: 22, Makespan: 333, Util: 0.99999, Overhead: 0},
	}
	fxOpen = []OpenCell{
		{Label: "static", Load: 0.5, Jobs: 1000, Mean: sim.Second, P50: 900 * sim.Millisecond, P99: 4 * sim.Second,
			Util: 0.4321, JobsPerSec: 12.345},
		{Label: "dynamic", Load: 0.95, Jobs: 0},
	}
	fxFaultStudies = []*FaultStudy{
		{Topology: topology.Mesh, PartitionSize: 4, Horizon: 2 * sim.Second, Curves: []FaultCurve{
			{Policy: sched.Static, Points: []FaultPoint{
				{Rate: 0, Mean: sim.Second, Makespan: 2 * sim.Second},
				{NodeMTBF: sim.Second, Rate: 1, Mean: 1500 * sim.Millisecond, Makespan: 3*sim.Second + 1,
					Faults: metrics.FaultStats{NodesFailed: 3, JobKills: 2, Requeues: 2, Restarts: 1,
						Checkpoints: 4, WorkLost: 120 * sim.Millisecond}, Retries: 9},
			}},
			{Policy: sched.TimeShared, Points: []FaultPoint{
				{Rate: 0, Mean: 1234567, Makespan: 2345678},
			}},
		}},
		{Topology: topology.Ring, PartitionSize: 8, Horizon: 500 * sim.Millisecond, Curves: []FaultCurve{
			{Policy: sched.RRProcess, Points: []FaultPoint{
				{NodeMTBF: 250 * sim.Millisecond, Rate: 4, Mean: 7, Makespan: 8,
					Faults: metrics.FaultStats{NodesFailed: 1}},
			}},
		}},
	}
	fxSummary = &metrics.Result{
		Label: "4M time-shared matmul fixed",
		Jobs: []metrics.JobRecord{
			{JobID: 0, Class: "small", Arrival: 0, Completed: 2 * sim.Second},
			{JobID: 1, Class: "large", Arrival: 100, Completed: 4*sim.Second + 12345},
			{JobID: 2, Class: "small", Arrival: 5, Completed: 3 * sim.Second},
		},
		Makespan: 4*sim.Second + 12345,
		Nodes: []metrics.NodeUsage{
			{Node: 0, BusyHigh: sim.Second, BusyLow: 2 * sim.Second, MemPeak: 4096, MemBlockedTime: 77},
			{Node: 1, BusyHigh: 500 * sim.Millisecond, MemPeak: 8192, MemBlockedTime: 3},
		},
		Net: metrics.NetUsage{Messages: 7, Hops: 12, TotalLatency: 7777, Retries: 2},
	}
)

// renderers is one entry per catalog experiment: its fixture rendered in
// the requested format through the view the catalog entry uses.
var renderers = map[string]func(Format) string{
	"f3":  fixture(figureView, fxFigure),
	"f4":  fixture(figureView, fxFigure),
	"f5":  fixture(figureView, fxFigure),
	"f6":  fixture(figureView, fxFigure),
	"e1":  fixture(varianceView, fxVariance),
	"e2":  fixture(ablationView, fxAblation),
	"e3":  fixture(quantumView, fxQuantum),
	"e4":  fixture(rrView, fxRR),
	"e5":  fixture(mplView, fxMPL),
	"e6":  fixture(loadView, fxLoad),
	"e7":  fixture(gangView, fxGang),
	"e8":  fixture(stencilView, fxStencil),
	"e9":  fixture(scaleView, fxScale),
	"e10": fixture(broadcastView, fxBroadcast),
	"e11": fixture(sortAlgView, fxSortAlg),
	"e12": fixture(collectiveView, fxCollective),
	"e14": fixture(zooView, fxZoo),
	"e15": fixture(openView, fxOpen),
}

func fixture[T any](v view[T], x T) func(Format) string {
	return func(f Format) string { return v.render(x, f) }
}

// faultDocs renders the fault-study documents the way cmd/faultstudy
// prints them: all studies fed into one NewDoc, or their tables.
func faultDocs(f Format) string {
	d := newDoc(f, FaultCols)
	if d == nil {
		var out string
		for _, s := range fxFaultStudies {
			out += s.Table()
		}
		return out
	}
	for _, s := range fxFaultStudies {
		s.Rows(d)
	}
	return d.String()
}

// summaryDoc renders the single-run summary schedd serves.
func summaryDoc(f Format) string {
	switch f {
	case CSV:
		return SummaryCSV(fxSummary)
	case JSON:
		return SummaryJSON(fxSummary)
	}
	return SummaryTable(fxSummary)
}

var renderFormats = []struct {
	f   Format
	ext string
}{{Table, "txt"}, {CSV, "csv"}, {JSON, "json"}}

func checkRendered(t *testing.T, name string, render func(Format) string) {
	t.Helper()
	for _, rf := range renderFormats {
		path := filepath.Join("testdata", "render", name+"."+rf.ext)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(rf.f); got != string(want) {
			t.Errorf("%s %s drifted from %s:\n got: %q\nwant: %q", name, rf.f, path, got, want)
		}
	}
}

// TestRenderCatalog covers every catalog experiment, and only those.
func TestRenderCatalog(t *testing.T) {
	var ids []string
	for _, e := range Catalog() {
		ids = append(ids, e.ID)
		render, ok := renderers[e.ID]
		if !ok {
			t.Errorf("catalog experiment %s has no render pin", e.ID)
			continue
		}
		checkRendered(t, e.ID, render)
	}
	if len(renderers) != len(ids) {
		var pinned []string
		for id := range renderers {
			pinned = append(pinned, id)
		}
		sort.Strings(pinned)
		t.Errorf("render pins %v, catalog %v", pinned, ids)
	}
}

// TestRenderSummary pins the single-run summary in all three formats.
func TestRenderSummary(t *testing.T) { checkRendered(t, "summary", summaryDoc) }

// TestRenderFaultStudies pins the multi-study fault documents.
func TestRenderFaultStudies(t *testing.T) { checkRendered(t, "faultstudies", faultDocs) }
