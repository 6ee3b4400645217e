package experiments

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------------
// E15 — the policy zoo under open-system load
//
// E14 compares the disciplines on the paper's closed batch; E15 asks the
// question a closed batch cannot: where does each discipline saturate? Jobs
// arrive as an open Poisson stream whose rate is calibrated to a target
// utilization ρ, and the sweep traces mean/p50/p99 response time against ρ
// across the same contender list as E14. Stable points show flat response;
// past a discipline's saturation knee the queue — and with it every
// percentile — grows with the horizon. Statistics stream through
// bounded-memory digests (see internal/stats/stream), so the per-point job
// count can scale to millions without materializing a batch.

// DefaultOpenLoads is the E15 sweep grid: the band the saturation knees of
// the policy zoo fall into.
var DefaultOpenLoads = []float64{0.5, 0.7, 0.85, 0.95}

// openReplications is how many seeds each (policy, ρ) point runs; their
// digests merge into one summary per point.
const openReplications = 2

// OpenCell is one (policy, ρ) point of the open-system load sweep.
type OpenCell struct {
	Label      string
	Load       float64
	Jobs       int64
	Mean       sim.Time
	P50, P99   sim.Time
	Util       float64
	JobsPerSec float64
}

// OpenSweep is extension experiment E15. Every cell streams base.Arrival
// (Poisson, 2000 jobs unless overridden) at one target load through one zoo
// discipline. base.Arrival.Load and MeanInterarrival must be unset — the
// sweep owns the load axis.
func OpenSweep(base core.Config, loads []float64, opts ...engine.Options) ([]OpenCell, error) {
	if len(loads) == 0 {
		loads = DefaultOpenLoads
	}
	if base.PartitionSize == 0 {
		base.PartitionSize = 4
	}
	if base.Topology == 0 {
		base.Topology = topology.Mesh
	}
	spec := base.Arrival
	if spec.Load != 0 || spec.MeanInterarrival != 0 {
		return nil, fmt.Errorf("experiments: E15 sweeps the load axis; leave arrival load and mean_interarrival unset")
	}
	if spec.Kind == arrival.Disabled {
		spec.Kind = arrival.Poisson
	}
	if spec.Kind == arrival.Trace {
		return nil, fmt.Errorf("experiments: E15 needs a generative arrival process, not a trace")
	}
	if spec.Jobs == 0 {
		spec.Jobs = 2000
	}
	type contender struct {
		pol   sched.Policy
		part  sched.PartitionKind
		quant sched.QuantumKind
		order sched.OrderKind
		free  bool
	}
	contenders := []contender{
		{pol: sched.Static},
		{pol: sched.TimeShared},
		{pol: sched.RRProcess},
		{pol: sched.Gang},
		{pol: sched.DynamicSpace, free: true},
		{pol: sched.TimeShared, quant: sched.QuantumDynamic},
		{pol: sched.Static, order: sched.OrderSRPT},
		{pol: sched.DynamicSpace, part: sched.PartEqui, free: true},
	}
	plan := engine.NewPlan[OpenCell]("E15 open load sweep")
	for _, c := range contenders {
		for _, load := range loads {
			c, load := c, load
			cfg := base
			cfg.Policy = c.pol
			cfg.PartitionPolicy = c.part
			cfg.QuantumPolicy = c.quant
			cfg.QueueOrder = c.order
			if c.free {
				cfg.PartitionSize = 0
			}
			cfg.Arrival = spec
			cfg.Arrival.Load = load
			label := fmt.Sprintf("%s @ %.2f", cfg.PolicyLabel(), load)
			plan.Add(label, func() (OpenCell, error) {
				cell := OpenCell{Label: cfg.PolicyLabel(), Load: load}
				var digest *stats.Digest
				for rep := 0; rep < openReplications; rep++ {
					rcfg := cfg
					rcfg.Seed = cfg.Seed + int64(rep)
					res, err := core.Run(rcfg)
					if err != nil {
						return OpenCell{}, fmt.Errorf("%s: %w", label, err)
					}
					o := res.Open
					cell.Jobs += o.Jobs
					cell.Util += res.CPUUtilization() / openReplications
					cell.JobsPerSec += o.ThroughputPerSec / openReplications
					if digest == nil {
						digest = o.Digest
					} else if err := digest.Merge(o.Digest); err != nil {
						return OpenCell{}, fmt.Errorf("%s: %w", label, err)
					}
				}
				cell.Mean = sim.Time(digest.Mean())
				cell.P50 = sim.Time(digest.Quantile(0.50))
				cell.P99 = sim.Time(digest.Quantile(0.99))
				return cell, nil
			})
		}
	}
	return engine.Execute(plan, opts...)
}

// OpenSweepTable renders E15.
func OpenSweepTable(cells []OpenCell) string {
	t := newText("E15 — Policy zoo under open-system load (response time vs ρ)")
	t.linef("%-20s %6s %8s %12s %12s %12s %7s %9s\n",
		"policy", "rho", "jobs", "mean", "p50", "p99", "util", "jobs/s")
	for _, c := range cells {
		t.linef("%-20s %6.2f %8d %12s %12s %12s %6.1f%% %9.2f\n",
			c.Label, c.Load, c.Jobs, fmtSec(c.Mean), fmtSec(c.P50), fmtSec(c.P99),
			100*c.Util, c.JobsPerSec)
	}
	return t.String()
}

var openView = view[[]OpenCell]{OpenSweepTable,
	[]string{"policy", "rho", "jobs", "mean_s", "p50_s", "p99_s", "util", "jobs_per_sec"},
	func(cells []OpenCell, d Doc) {
		for _, c := range cells {
			d.Row(c.Label, fix2(c.Load), c.Jobs, secs(c.Mean), secs(c.P50), secs(c.P99),
				fix4(c.Util), fix2(c.JobsPerSec))
		}
	}}
