// Command perfgate runs the declarative performance cases under
// perf/cases/ and enforces the BENCH_*.json ledger: each case is measured
// with warmup + repeated trials, its medians are checked against the
// goals declared for this host's machine class and against the newest
// ledger baseline for the same case and class, and the run is appended to
// BENCH_<date>.json as a structured entry. Exit is nonzero when an
// enforced goal misses or a metric regresses beyond its tolerance band —
// this is what `make perf-gate` runs in CI.
//
// Goals declared for other machine classes are advisory: a 1-core CI host
// cannot attest a ≥2x parallel speedup, so it reports the goal as
// unattested instead of lying in either direction.
//
//	perfgate [-cases perf/cases] [-ledger .] [-run regex] [-group name]
//	         [-class ci-1core|typical] [-list] [-no-append]
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"time"

	"repro/internal/perfgate"
)

func main() {
	var (
		casesDir = flag.String("cases", "perf/cases", "directory of case files")
		ledger   = flag.String("ledger", ".", "directory holding BENCH_*.json")
		runExpr  = flag.String("run", "", "only run cases whose name matches this regexp")
		group    = flag.String("group", "", "only run cases in this group (kernel, proc, sweep, fork, arrivals, serve)")
		class    = flag.String("class", "", "override the detected machine class")
		date     = flag.String("date", "", "override the entry date (YYYY-MM-DD, default today)")
		list     = flag.Bool("list", false, "list matching cases and exit")
		validate = flag.Bool("validate", false, "validate the case files and ledger without measuring")
		noAppend = flag.Bool("no-append", false, "measure and compare without appending to the ledger")
	)
	flag.Parse()
	if *validate {
		if err := runValidate(*casesDir, *ledger); err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*casesDir, *ledger, *runExpr, *group, *class, *date, *list, *noAppend); err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(1)
	}
}

// runValidate is the cheap CI mode: parse every case file and validate
// every BENCH_*.json without running a single benchmark, so a hand-edit
// that corrupts the ledger or a malformed case fails every CI run even
// when the full gate is off.
func runValidate(casesDir, ledgerDir string) error {
	cases, err := perfgate.LoadCases(casesDir)
	if err != nil {
		return err
	}
	if err := perfgate.ValidateLedgerDir(ledgerDir); err != nil {
		return fmt.Errorf("ledger validation failed:\n%w", err)
	}
	files, err := perfgate.LedgerFiles(ledgerDir)
	if err != nil {
		return err
	}
	fmt.Printf("perfgate: %d case(s) and %d ledger file(s) valid\n", len(cases), len(files))
	return nil
}

func run(casesDir, ledgerDir, runExpr, group, classOverride, date string, list, noAppend bool) error {
	cases, err := perfgate.LoadCases(casesDir)
	if err != nil {
		return err
	}
	if runExpr != "" {
		re, err := regexp.Compile(runExpr)
		if err != nil {
			return fmt.Errorf("-run: %w", err)
		}
		cases = filterCases(cases, func(c *perfgate.Case) bool { return re.MatchString(c.Name) })
	}
	if group != "" {
		cases = filterCases(cases, func(c *perfgate.Case) bool { return c.Group == group })
	}
	if len(cases) == 0 {
		return fmt.Errorf("no cases match")
	}

	class := perfgate.Detect()
	if classOverride != "" {
		class = perfgate.Class(classOverride)
		if !perfgate.ValidClass(class) {
			return fmt.Errorf("-class: unknown class %q (known: %v)", classOverride, perfgate.KnownClasses())
		}
	}
	if list {
		for _, c := range cases {
			enforced := "advisory on " + string(class)
			if _, ok := c.Goals[class]; ok {
				enforced = "enforced on " + string(class)
			}
			fmt.Printf("%-22s group=%-8s workload=%-20s benchtime=%-6s trials=%d tol=%g%% (%s)\n",
				c.Name, c.Group, c.Workload, c.Benchtime, c.Trials, c.TolerancePct, enforced)
		}
		return nil
	}

	// A corrupt ledger must stop the gate before any measuring: appending
	// to it would bury the corruption under fresh entries.
	if err := perfgate.ValidateLedgerDir(ledgerDir); err != nil {
		return fmt.Errorf("ledger validation failed:\n%w", err)
	}
	entries, err := perfgate.ReadLedger(ledgerDir)
	if err != nil {
		return err
	}
	if date == "" {
		date = time.Now().Format("2006-01-02")
	}
	host := perfgate.DetectHost()
	fmt.Printf("perfgate: class %s (%d core(s), %s), %d case(s), ledger %s\n",
		class, host.Cores, host.CPU, len(cases), perfgate.LedgerFileFor(ledgerDir, date))

	var failures []string
	var appended []perfgate.Entry
	for _, c := range cases {
		run, err := perfgate.RunCase(c)
		if err != nil {
			return fmt.Errorf("case %s: %w", c.Name, err)
		}
		run.Class = class // honor -class for goal selection and baseline matching
		goals, enforced := c.Goals[class]
		checks := goals.Evaluate(run.Median)
		cmp := perfgate.Compare(run, perfgate.FindBaseline(entries, c.Name, class))
		entry := perfgate.EntryFor(date, run, cmp, checks, enforced)
		appended = append(appended, entry)

		fmt.Println(perfgate.FormatEntryLine(entry))
		for _, d := range cmp.Deltas {
			fmt.Printf("    %s (band %.1f%%)\n", d, cmp.ThresholdPct)
			if d.Verdict == perfgate.VerdictRegression {
				failures = append(failures, fmt.Sprintf("case %s: regression: %s", c.Name, d))
			}
		}
		for _, g := range checks {
			status := "ok"
			if g.Missing || !g.OK {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("case %s: goal %s", c.Name, g))
			}
			fmt.Printf("    goal %s [%s]\n", g, status)
		}
		// Goals declared for other machine classes run advisory: report
		// what this host measured against them, but never fail — a
		// class-mismatched goal (the ≥2x sweep speedup on a 1-core CI
		// host) is unattestable here, not violated.
		for _, cl := range perfgate.KnownClasses() {
			if cl == class {
				continue
			}
			for _, g := range c.Goals[cl].Evaluate(run.Median) {
				if dup := func() bool {
					for _, e := range checks {
						if e.Goal == g.Goal && e.Limit == g.Limit {
							return true
						}
					}
					return false
				}(); dup {
					continue
				}
				fmt.Printf("    goal %s [advisory: declared for class %s, unattested on %s]\n", g, cl, class)
			}
		}
	}

	if noAppend {
		fmt.Println("perfgate: -no-append, ledger untouched")
	} else {
		path, err := perfgate.AppendEntries(ledgerDir, date, appended)
		if err != nil {
			return fmt.Errorf("appending ledger: %w", err)
		}
		fmt.Printf("perfgate: appended %d entr%s to %s\n", len(appended), plural(len(appended), "y", "ies"), path)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "perfgate: FAIL %s\n", f)
		}
		return fmt.Errorf("%d check(s) failed", len(failures))
	}
	fmt.Println("perfgate: all checks passed")
	return nil
}

func filterCases(cases []*perfgate.Case, keep func(*perfgate.Case) bool) []*perfgate.Case {
	var out []*perfgate.Case
	for _, c := range cases {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
