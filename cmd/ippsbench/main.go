// Command ippsbench regenerates every table and figure of the paper's
// evaluation, plus the extension experiments, as text tables, CSV or JSON.
// The experiment set is the shared registry in internal/experiments
// (Catalog), the same one cmd/schedd serves over HTTP.
//
// Usage:
//
//	ippsbench                  # everything (Figures 3-6, E1-E12)
//	ippsbench -run f3,f5       # just Figure 3 and Figure 5
//	ippsbench -run e1 -format csv
//	ippsbench -run e6 -format json
//	ippsbench -j 4             # cap the simulation worker pool
//	ippsbench -list            # list available experiment ids
//
// Each experiment is deterministic: repeated runs print identical numbers,
// whatever -j says.
//
// With -cluster, each selected experiment is shipped as a /v1/run request
// to a fleet of schedd workers (routed by content address, with failover
// and hedging); the workers render with the same code, so the printed
// documents are byte-identical to a local run. Per-experiment timing lines
// are omitted in cluster mode — wall time there measures the fleet, not
// the experiment.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiment ids (f3..f6, e1..e15) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "table", "output format: table, csv or json")
	quiet := flag.Bool("q", false, "suppress timing lines")
	cf := cliflags.Register()
	af := cliflags.RegisterArrival()
	cl := cliflags.RegisterCluster()
	flag.Parse()

	stopProf, err := cf.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ippsbench:", err)
		os.Exit(2)
	}
	defer stopProf()

	catalog := experiments.Catalog()
	if *list {
		for _, e := range catalog {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	fmtKind, err := experiments.ParseFormat(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ippsbench: %v\n", err)
		os.Exit(2)
	}

	wanted := map[string]bool{}
	if *runList != "all" {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			if experiments.Lookup(id) == nil {
				fmt.Fprintf(os.Stderr, "ippsbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			wanted[experiments.Lookup(id).ID] = true
		}
	}

	base := cf.Base()
	if err := af.Apply(&base); err != nil {
		fmt.Fprintln(os.Stderr, "ippsbench:", err)
		os.Exit(2)
	}
	start := time.Now()
	if cl.Enabled() {
		runCluster(cl, base, cf, catalog, wanted, *runList, fmtKind)
	} else {
		for _, e := range catalog {
			if *runList != "all" && !wanted[e.ID] {
				continue
			}
			t0 := time.Now()
			out, err := e.Run(base, fmtKind, cf.Options())
			if err != nil {
				fmt.Fprintf(os.Stderr, "ippsbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			if fmtKind == experiments.CSV {
				fmt.Printf("# %s — %s\n", e.ID, e.Title)
			}
			fmt.Println(out)
			if !*quiet {
				fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
			}
		}
	}
	if !*quiet {
		fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
	}
}

// runCluster ships each selected experiment as one /v1/run request; the
// worker renders the document with the same code the local path uses.
// Requests fan out over the fleet; documents print in catalog order.
func runCluster(cl cliflags.Cluster, base core.Config, cf cliflags.Common, catalog []experiments.CatalogEntry, wanted map[string]bool, runList string, fmtKind experiments.Format) {
	coord, err := cl.Coordinator()
	if err != nil {
		fail(err)
	}
	spec, err := serve.SpecFromConfig(base)
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	plan := engine.NewPlan[[]byte]("ippsbench/cluster")
	var selected []experiments.CatalogEntry
	for _, e := range catalog {
		if runList != "all" && !wanted[e.ID] {
			continue
		}
		req := serve.RunRequest{Experiment: e.ID, Format: fmtKind.String(), Config: spec}
		_, _, _, key, err := req.Resolve()
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		body, err := json.Marshal(req)
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		pt := engine.RemotePoint{Label: e.ID, Key: key, Path: "/v1/run", Body: body}
		plan.Add(e.ID, func() ([]byte, error) { return coord.Do(ctx, pt) })
		selected = append(selected, e)
	}
	bodies, errs := engine.ExecuteAll(plan, cl.RemoteOptions(cf, coord))
	for i, e := range selected {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "ippsbench: %s: %v\n", e.ID, errs[i])
			os.Exit(1)
		}
		if fmtKind == experiments.CSV {
			fmt.Printf("# %s — %s\n", e.ID, e.Title)
		}
		fmt.Println(string(bodies[i]))
	}
	cl.FinishReport(coord)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ippsbench:", err)
	os.Exit(2)
}
