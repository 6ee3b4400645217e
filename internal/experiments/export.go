package experiments

import "repro/internal/metrics"

// Every experiment becomes a document one way: a view declares its
// historical text table, its CSV/JSON columns and its typed row feed
// exactly once, and render picks the table or feeds the rows through a
// Doc. The CSV and JSON renderings share the row feed, so a column added
// to the CSV is in the JSON by construction. Formatting and escaping live
// in the shared row-writers (render.go). Times are in seconds.

// view is how one experiment's result T becomes a table, CSV or JSON
// document.
type view[T any] struct {
	table func(T) string
	cols  []string
	rows  func(T, Doc)
}

// render renders x in the requested format; anything but CSV and JSON is
// the text table.
func (v view[T]) render(x T, f Format) string {
	d := newDoc(f, v.cols)
	if d == nil {
		return v.table(x)
	}
	v.rows(x, d)
	return d.String()
}

var figureView = view[*Figure]{(*Figure).Table, []string{"label", "partition", "topology",
	"static_avg_s", "static_best_s", "static_worst_s", "ts_s", "ts_over_static", "ts_mem_blocked_s",
	"ts_overhead_frac"}, (*Figure).rows}

func (f *Figure) rows(d Doc) {
	for _, c := range f.Cells {
		d.Row(c.Label, c.PartitionSize, c.Topology,
			secs(c.Static), secs(c.StaticBest), secs(c.StaticWorst),
			secs(c.TS), fix4(c.Ratio()), secs(c.TSMemBlocked), fix4(c.TSOverheadFrac))
	}
}

var varianceView = view[[]VariancePoint]{VarianceTable, []string{"cv", "static_s", "ts_s"},
	func(points []VariancePoint, d Doc) {
		for _, p := range points {
			d.Row(fix2(p.CV), secs(p.Static), secs(p.TS))
		}
	}}

var ablationView = view[[]AblationCell]{AblationTable,
	[]string{"label", "saf_s", "wormhole_s", "saf_mem_blocked_s", "wh_mem_blocked_s"},
	func(cells []AblationCell, d Doc) {
		for _, c := range cells {
			d.Row(c.Label, secs(c.SAF), secs(c.WH), secs(c.SAFBlock), secs(c.WHBlock))
		}
	}}

var quantumView = view[[]QuantumPoint]{QuantumTable, []string{"quantum_us", "ts_s", "overhead_frac"},
	func(points []QuantumPoint, d Doc) {
		for _, p := range points {
			d.Row(int64(p.Q), secs(p.TS), fix4(p.OverheadFrac))
		}
	}}

var rrView = view[*RRComparisonResult]{RRTable, []string{"policy", "narrow_s", "wide_s"},
	func(r *RRComparisonResult, d Doc) {
		d.Row("rr-job", secs(r.RRJobSmall), secs(r.RRJobBig))
		d.Row("rr-process", secs(r.RRProcSmall), secs(r.RRProcBig))
	}}

var mplView = view[[]MPLPoint]{MPLTable, []string{"mpl", "ts_s", "mem_blocked_s"},
	func(points []MPLPoint, d Doc) {
		for _, p := range points {
			d.Row(p.MaxResident, secs(p.Mean), secs(p.MemBlocked))
		}
	}}

var loadView = view[[]LoadPoint]{LoadTable, []string{"rho", "static4_s", "hybrid4_s", "dynamic_s"},
	func(points []LoadPoint, d Doc) {
		for _, p := range points {
			d.Row(fix2(p.Rho), secs(p.Static4), secs(p.Hybrid4), secs(p.Dynamic))
		}
	}}

var gangView = view[[]GangCell]{GangTable,
	[]string{"app", "rrjob_s", "gang_s", "rrjob_overhead", "gang_overhead"},
	func(cells []GangCell, d Doc) {
		for _, c := range cells {
			d.Row(c.App, secs(c.RRJob), secs(c.Gang), fix4(c.RRJobOvh), fix4(c.GangOverhead))
		}
	}}

var stencilView = view[[]StencilCell]{StencilTable,
	[]string{"label", "static_s", "ts_s", "ts_avg_msg_latency_us"},
	func(cells []StencilCell, d Doc) {
		for _, c := range cells {
			d.Row(c.Label, secs(c.Static), secs(c.TS), int64(c.TSAvgLat))
		}
	}}

var scaleView = view[[]ScaleCell]{ScaleTable,
	[]string{"nodes", "static_s", "ts_s", "ts_mem_blocked_s", "ts_overhead_frac"},
	func(cells []ScaleCell, d Doc) {
		for _, c := range cells {
			d.Row(c.Machine, secs(c.Static), secs(c.TS), secs(c.TSMemBlock), fix4(c.TSOverhead))
		}
	}}

var broadcastView = view[[]BroadcastCell]{BroadcastTable, []string{"config", "sequential_s", "tree_s"},
	func(cells []BroadcastCell, d Doc) {
		for _, c := range cells {
			d.Row(c.Label, secs(c.Seq), secs(c.Tree))
		}
	}}

var sortAlgView = view[[]SortAlgCell]{SortAlgTable,
	[]string{"algorithm", "partition", "fixed_s", "adaptive_s"},
	func(cells []SortAlgCell, d Doc) {
		for _, c := range cells {
			d.Row(c.Algorithm, c.PartitionSize, secs(c.Fixed), secs(c.Adaptive))
		}
	}}

var collectiveView = view[[]CollectiveCell]{CollectiveTable, []string{"label", "single_s", "ts_s", "avg_hops"},
	func(cells []CollectiveCell, d Doc) {
		for _, c := range cells {
			d.Row(c.Label, secs(c.Single), secs(c.TS), fix2(c.AvgHops))
		}
	}}

// FaultCols are the fault-study document columns; Rows feeds them.
var FaultCols = []string{"topology", "partition", "policy", "rate_per_node_s", "mtbf_us",
	"mean_s", "makespan_s", "nodes_failed", "job_kills", "requeues", "restarts",
	"checkpoints", "work_lost_s", "retries"}

// Rows appends the study's points to a FaultCols document. Several studies
// fed into one document give the single-header output of
// cmd/faultstudy -format csv|json.
func (s *FaultStudy) Rows(d Doc) {
	for _, c := range s.Curves {
		for _, p := range c.Points {
			d.Row(s.Topology, s.PartitionSize, c.Policy, p.Rate, int64(p.NodeMTBF),
				secs(p.Mean), secs(p.Makespan),
				p.Faults.NodesFailed, p.Faults.JobKills, p.Faults.Requeues,
				p.Faults.Restarts, p.Faults.Checkpoints, secs(p.Faults.WorkLost), p.Retries)
		}
	}
}

// Single-run summary: the headline metrics of one core.Run, the body
// schedd serves for config-shaped (non-experiment) requests. Field set and
// rendering mirror cmd/sweep's CSV columns, with percentiles and network
// detail added; all three renderings share one column/cell feed.

var summaryCols = []string{"label", "jobs", "mean_s", "p50_s", "p95_s", "max_s",
	"makespan_s", "util", "overhead", "mem_blocked_s", "peak_mem_bytes",
	"messages", "avg_hops", "avg_latency_us", "retries"}

func summaryCells(res *metrics.Result) []any {
	return []any{
		res.Label,
		len(res.Jobs),
		secs(res.MeanResponse()),
		secs(res.ResponsePercentile(50)),
		secs(res.ResponsePercentile(95)),
		secs(res.MaxResponse()),
		secs(res.Makespan),
		fix4(res.CPUUtilization()),
		fix4(res.SystemOverheadFraction()),
		secs(res.TotalMemBlockedTime()),
		res.PeakMemory(),
		res.Net.Messages,
		fix2(res.Net.AvgHops()),
		int64(res.Net.AvgLatency()),
		res.Net.Retries,
	}
}

// SummaryJSON renders the summary as one flat JSON object.
func SummaryJSON(res *metrics.Result) string {
	o := newJSONObject()
	cells := summaryCells(res)
	for i, col := range summaryCols {
		o.field(col, cells[i])
	}
	return o.String()
}

// SummaryCSV renders the summary as a one-row CSV document.
func SummaryCSV(res *metrics.Result) string {
	w := newCSV(summaryCols...)
	w.Row(summaryCells(res)...)
	return w.String()
}

// SummaryTable renders the summary as an aligned name/value text table.
func SummaryTable(res *metrics.Result) string {
	t := newText(res.Label)
	cells := summaryCells(res)
	for i, col := range summaryCols {
		if col == "label" {
			continue
		}
		t.linef("%-16s %s\n", col, csvCell(cells[i]))
	}
	return t.String()
}
