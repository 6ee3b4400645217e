package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestFigureCSV(t *testing.T) {
	fig := &Figure{
		ID: "Figure X",
		Cells: []Cell{{
			Label: "4M", PartitionSize: 4, Topology: topology.Mesh,
			Static: 2 * sim.Second, StaticBest: sim.Second, StaticWorst: 3 * sim.Second,
			TS: 4 * sim.Second, TSMemBlocked: 500 * sim.Millisecond, TSOverheadFrac: 0.25,
		}},
	}
	csv := figureView.render(fig, CSV)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "label,partition,topology") {
		t.Errorf("header = %q", lines[0])
	}
	want := "4M,4,mesh,2.000000,1.000000,3.000000,4.000000,2.0000,0.500000,0.2500"
	if lines[1] != want {
		t.Errorf("row = %q, want %q", lines[1], want)
	}
}

func TestScalarCSVs(t *testing.T) {
	cases := map[string]struct {
		got        string
		wantHeader string
		wantRow    string
	}{
		"variance": {
			got:        varianceView.render([]VariancePoint{{CV: 0.5, Static: sim.Second, TS: 2 * sim.Second}}, CSV),
			wantHeader: "cv,static_s,ts_s",
			wantRow:    "0.50,1.000000,2.000000",
		},
		"ablation": {
			got:        ablationView.render([]AblationCell{{Label: "16L", SAF: sim.Second, WH: sim.Second / 2, SAFBlock: sim.Second * 3}}, CSV),
			wantHeader: "label,saf_s,wormhole_s",
			wantRow:    "16L,1.000000,0.500000,3.000000,0.000000",
		},
		"quantum": {
			got:        quantumView.render([]QuantumPoint{{Q: 2000, TS: sim.Second, OverheadFrac: 0.1}}, CSV),
			wantHeader: "quantum_us,ts_s,overhead_frac",
			wantRow:    "2000,1.000000,0.1000",
		},
		"rr": {
			got:        rrView.render(&RRComparisonResult{RRJobSmall: sim.Second, RRJobBig: sim.Second, RRProcSmall: 2 * sim.Second, RRProcBig: sim.Second / 2}, CSV),
			wantHeader: "policy,narrow_s,wide_s",
			wantRow:    "rr-job,1.000000,1.000000",
		},
		"mpl": {
			got:        mplView.render([]MPLPoint{{MaxResident: 2, Mean: sim.Second, MemBlocked: 0}}, CSV),
			wantHeader: "mpl,ts_s,mem_blocked_s",
			wantRow:    "2,1.000000,0.000000",
		},
		"load": {
			got:        loadView.render([]LoadPoint{{Rho: 0.5, Static4: sim.Second, Hybrid4: sim.Second, Dynamic: sim.Second}}, CSV),
			wantHeader: "rho,static4_s,hybrid4_s,dynamic_s",
			wantRow:    "0.50,1.000000,1.000000,1.000000",
		},
		"gang": {
			got:        gangView.render([]GangCell{{App: "stencil", RRJob: 2 * sim.Second, Gang: sim.Second, RRJobOvh: 0.5, GangOverhead: 0.25}}, CSV),
			wantHeader: "app,rrjob_s,gang_s",
			wantRow:    "stencil,2.000000,1.000000,0.5000,0.2500",
		},
		"stencil": {
			got:        stencilView.render([]StencilCell{{Label: "8L", Static: sim.Second, TS: 3 * sim.Second, TSAvgLat: 1500}}, CSV),
			wantHeader: "label,static_s,ts_s",
			wantRow:    "8L,1.000000,3.000000,1500",
		},
	}
	for name, c := range cases {
		lines := strings.Split(strings.TrimSpace(c.got), "\n")
		if !strings.HasPrefix(lines[0], c.wantHeader) {
			t.Errorf("%s header = %q", name, lines[0])
		}
		if len(lines) < 2 || lines[1] != c.wantRow {
			t.Errorf("%s row = %q, want %q", name, lines[1], c.wantRow)
		}
	}
}
