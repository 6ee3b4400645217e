// Command faultstudy runs the fault-degradation study: mean response time
// versus per-node failure rate for each scheduling policy, with message
// retry and scheduler repair enabled (and optionally checkpoint/restart).
// The zero-rate point always runs with the injector attached and is checked
// against a fault-free run of the same seed — identical numbers are the
// determinism guarantee of the fault subsystem.
//
// With -cluster the (policy × ladder) points are executed on a fleet of
// schedd workers via the distributed sweep fabric; the study logic — the
// zero-rate determinism check included — runs locally over the lossless
// wire summaries, so output matches a local run byte for byte.
//
//	faultstudy                              # mesh+ring, partition 4, matmul
//	faultstudy -topos mesh -rates 0.5,1,2,4,8
//	faultstudy -ckpt 100ms -ckpt-cost 200us # with checkpoint/restart
//	faultstudy -format csv > curves.csv
//	faultstudy -cluster 127.0.0.1:8080,127.0.0.1:8081
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/cmd/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		topos      = flag.String("topos", "mesh,ring", "comma-separated topologies to study")
		partition  = flag.Int("partition", 4, "partition size")
		app        = flag.String("app", "matmul", "application (matmul, sort, stencil)")
		arch       = flag.String("arch", "adaptive", "software architecture (fixed, adaptive)")
		policies   = flag.String("policies", "static,ts,rrp", "policies to compare")
		rates      = flag.String("rates", "0.5,1,2,4", "per-node failure rates in failures/second (0 is always included)")
		horizon    = flag.Duration("horizon", 0, "fault injection horizon (0 = default 2s)")
		ckpt       = flag.Duration("ckpt", 0, "checkpoint interval (0 = checkpointing off)")
		ckptCost   = flag.Duration("ckpt-cost", 0, "per-node CPU cost of one checkpoint")
		drop       = flag.Float64("drop", 0, "message drop probability at faulty points (0 = off)")
		retry      = flag.Duration("retry", 0, "reliable-delivery retry timeout; must exceed worst-case delivery latency (0 = default 100ms when -drop is set)")
		csv        = flag.Bool("csv", false, "emit CSV instead of tables (same as -format csv)")
		formatSpec = flag.String("format", "", "output format: table (default), csv or json")
	)
	cf := cliflags.Register()
	cl := cliflags.RegisterCluster()
	flag.Parse()

	if *formatSpec == "" && *csv {
		*formatSpec = "csv"
	}
	format, err := experiments.ParseFormat(*formatSpec)
	if err != nil {
		fail(err)
	}

	stopProf, err := cf.StartProfiling()
	if err != nil {
		fail(err)
	}
	defer stopProf()

	appKind, err := core.ParseApp(*app)
	if err != nil {
		fail(err)
	}
	archKind, err := workload.ParseArch(*arch)
	if err != nil {
		fail(err)
	}
	pols, err := cliflags.Policies(*policies)
	if err != nil {
		fail(err)
	}
	mtbfs, err := parseRates(*rates)
	if err != nil {
		fail(err)
	}
	// An empty ladder would silently fall back to the default rates inside
	// the study; the user asking for "no faulty points" deserves an error.
	if len(mtbfs) == 0 {
		fail(fmt.Errorf("-rates %q contains no non-zero failure rate (the zero-rate point is always included)", *rates))
	}
	kinds, err := cliflags.Topologies(*topos)
	if err != nil {
		fail(err)
	}

	// With -cluster, points run on the fleet; the study machinery and its
	// zero-rate determinism check stay local.
	var runner experiments.FaultRunner
	opts := cf.Options()
	if cl.Enabled() {
		coord, err := cl.Coordinator()
		if err != nil {
			fail(err)
		}
		runner = coord.FaultRunner(context.Background())
		opts = cl.RemoteOptions(cf, coord)
		defer cl.FinishReport(coord)
	}

	var studies []*experiments.FaultStudy
	for _, kind := range kinds {
		study, err := experiments.RunFaultStudy(experiments.FaultStudyConfig{
			Base: core.Config{
				PartitionSize: *partition,
				App:           appKind,
				Arch:          archKind,
				Seed:          *cf.Seed,
			},
			Topology:       kind,
			Policies:       pols,
			MTBFs:          mtbfs,
			Horizon:        sim.FromDuration(*horizon),
			Checkpoint:     sim.FromDuration(*ckpt),
			CheckpointCost: sim.FromDuration(*ckptCost),
			DropProb:       *drop,
			RetryTimeout:   sim.FromDuration(*retry),
			Runner:         runner,
		}, opts)
		if err != nil {
			fail(err)
		}
		studies = append(studies, study)
	}

	if format == experiments.Table {
		for i, study := range studies {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(study.Table())
		}
		return
	}
	// One document with a single header for every study.
	doc, err := experiments.NewDoc(format, experiments.FaultCols...)
	if err != nil {
		fail(err)
	}
	for _, study := range studies {
		study.Rows(doc)
	}
	fmt.Print(doc.String())
}

// parseRates converts failures-per-node-second values to MTBFs. Zero rates
// are dropped (the study always includes the zero-rate point).
func parseRates(s string) ([]sim.Time, error) {
	var out []sim.Time
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("failure rate %q: %w", f, err)
		}
		if r < 0 {
			return nil, fmt.Errorf("failure rate %v must be >= 0", r)
		}
		if r == 0 {
			continue
		}
		out = append(out, sim.Time(float64(sim.Second)/r))
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultstudy:", err)
	os.Exit(1)
}
