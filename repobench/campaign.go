package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// campaignFigure is one of the paper's Figures 3-6, as the experiments
// catalog defines it (experiments.Figure3..Figure6).
type campaignFigure struct {
	catalogID, id, title string
	app                  core.AppKind
	arch                 workload.Arch
}

var campaignFigures = []campaignFigure{
	{"f3", "Figure 3", "Matrix multiplication, fixed software architecture", core.MatMul, workload.Fixed},
	{"f4", "Figure 4", "Matrix multiplication, adaptive software architecture", core.MatMul, workload.Adaptive},
	{"f5", "Figure 5", "Sort, fixed software architecture", core.Sort, workload.Fixed},
	{"f6", "Figure 6", "Sort, adaptive software architecture", core.Sort, workload.Adaptive},
}

// campaignCell is one partition configuration of a figure: the paper's
// sweep over sizes 1-16 and every topology, without the 16-node hypercube
// (one transputer is reserved for the host link).
type campaignCell struct {
	size int
	kind topology.Kind
}

func campaignCells() []campaignCell {
	var cells []campaignCell
	for _, p := range experiments.PartitionSizes {
		if p == 1 {
			cells = append(cells, campaignCell{1, topology.Linear})
			continue
		}
		for _, k := range topology.Kinds() {
			if k == topology.Hypercube && p == 16 {
				continue
			}
			cells = append(cells, campaignCell{p, k})
		}
	}
	return cells
}

func (c campaignCell) label() string {
	if c.size == 1 {
		return "1"
	}
	return fmt.Sprintf("%d%s", c.size, c.kind.Letter())
}

// campaignRep runs the f3-f6 campaign once at one engine worker: the same
// simulations, in the same order, as `ippsbench -run f3,f4,f5,f6 -j 1`,
// and renders the same tables. It builds the engine plans itself instead
// of calling the catalog so that it can time every closed batch (one
// core.Run) from outside; the rendered text is checked against digests of
// the catalog's own output, which proves the two paths agree.
func campaignRep(w *worker) error {
	cells := campaignCells()
	w.ready()
	rep := w.tr.start(1, 0, "campaign")
	start := now()
	var coreMS float64
	for _, f := range campaignFigures {
		figSpan := w.tr.start(1, rep.id(), "figure "+f.catalogID)
		fig := &experiments.Figure{ID: f.id, Title: f.title, App: f.app, Arch: f.arch}
		plan := engine.NewPlan[experiments.Cell](f.catalogID)
		for _, c := range cells {
			c := c
			plan.Add(c.label(), func() (experiments.Cell, error) {
				cellSpan := w.tr.start(1, figSpan.id(), "cell "+c.label())
				defer w.tr.end(cellSpan)
				cfg := core.Config{App: f.app, Arch: f.arch, PartitionSize: c.size, Topology: c.kind}
				batch := func(name string, policy sched.Policy, order core.Order) (*metrics.Result, error) {
					cfg := cfg
					cfg.Policy, cfg.Order = policy, order
					s := w.tr.start(1, cellSpan.id(), name)
					t0 := now()
					res, err := core.Run(cfg)
					ms, cpuMS := t0.since()
					w.tr.end(s)
					w.op(ms, cpuMS)
					coreMS += ms
					if err != nil {
						return nil, fmt.Errorf("%s %s %s: %w", f.catalogID, c.label(), name, err)
					}
					w.Jobs += int64(len(res.Jobs))
					w.observe(name, ms, res)
					return res, nil
				}
				best, err := batch("core.Run static", sched.Static, core.SmallestFirst)
				if err != nil {
					return experiments.Cell{}, err
				}
				worst, err := batch("core.Run static", sched.Static, core.LargestFirst)
				if err != nil {
					return experiments.Cell{}, err
				}
				ts, err := batch("core.Run ts", sched.TimeShared, core.Submission)
				if err != nil {
					return experiments.Cell{}, err
				}
				return experiments.Cell{
					PartitionSize:  c.size,
					Topology:       c.kind,
					Label:          c.label(),
					Static:         metrics.MeanOf(best, worst),
					StaticBest:     best.MeanResponse(),
					StaticWorst:    worst.MeanResponse(),
					TS:             ts.MeanResponse(),
					TSMemBlocked:   ts.TotalMemBlockedTime(),
					TSOverheadFrac: ts.SystemOverheadFraction(),
					TSAvgMsgLat:    ts.Net.AvgLatency(),
					StaticUtil:     (best.CPUUtilization() + worst.CPUUtilization()) / 2,
					TSUtil:         ts.CPUUtilization(),
				}, nil
			})
		}
		attempted := w.Attempted
		var err error
		fig.Cells, err = engine.Execute(plan, engine.Options{Workers: 1})
		figOps := int(w.Attempted - attempted)
		if err != nil {
			w.fail(figOps, "%s: %v", f.catalogID, err)
			w.tr.end(figSpan)
			continue
		}
		render := w.tr.start(1, figSpan.id(), "render")
		text := fig.Table()
		w.tr.end(render)
		w.tr.end(figSpan)
		if got, want := digest(text), w.exp.Campaign[f.catalogID]; got != want {
			w.fail(figOps, "%s: rendered table sha256 %s, want %s", f.catalogID, got, want)
		}
	}
	w.measured(start)
	w.tr.end(rep)
	if w.Layer != nil {
		w.Layer["experiments.self_share"] = (w.WallS - coreMS/1e3) / w.WallS
	}
	return nil
}

// digest is the hex sha256 of a rendered figure followed by the newline
// ippsbench prints after it, so a digest can be checked by hand against
// `ippsbench -run f3 -j 1 -q | sha256sum`.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text + "\n"))
	return hex.EncodeToString(sum[:])
}
