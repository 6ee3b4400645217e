package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/perfgate"
)

// runWorkerReps drives campaign and open-paper: each rep is a worker
// process of this binary. An untraced campaign run repeats whole campaigns
// until the measuring time is spent; an untraced open-paper run splits the
// measuring time over setupReps reps. A traced run alternates untraced and
// traced reps, two of each: the untraced ones give the reference for
// trace_overhead_pct, the traced ones every per-layer number.
func runWorkerReps(r *runCtx) (*outcome, error) {
	campaign := r.spec.name == "campaign"
	plain, traced := &outcome{}, &outcome{}
	var profiles []string
	var replays [][]float64 // untraced campaign reps' batch costs, in batch order
	reps := setupReps
	if r.traced {
		reps = 4
	}
	for i := 0; i < reps || (campaign && !r.traced && plain.wallS < r.seconds.Seconds()); i++ {
		a := workerArgs{workload: r.spec.name, seed: r.seed, traced: r.traced && i%2 == 1}
		if !campaign {
			a.budget = r.seconds / time.Duration(reps)
			if !r.traced {
				a.minOps = (minSamples(r.spec.tailQ) + reps - 1) / reps
			}
		}
		if a.traced {
			a.profile = filepath.Join(r.out, fmt.Sprintf("cpu-%s-seed%d-rep%d.pprof", r.spec.name, r.seed, i))
			profiles = append(profiles, a.profile)
		}
		rep, err := startWorker(r.self, a, r.expected)
		if err != nil {
			return nil, err
		}
		if a.traced {
			traced.merge(rep)
			traced.layer = meanLayers(traced.layer, rep.Layer, len(profiles))
		} else {
			plain.merge(rep)
			replays = append(replays, rep.OpsCPUMS)
		}
		fmt.Fprintf(r.log, "rep %d traced=%v: setup %.4fs (%.4fs CPU), %d ops in %.3fs (%.3fs CPU), peak RSS %.1f MB\n",
			i, a.traced, rep.SetupS, rep.SetupCPUS, len(rep.OpsMS), rep.WallS, rep.CPUS, rep.RSSMB)
	}
	if campaign {
		perCampaign := float64(plain.work) / float64(len(plain.wallRate))
		if !r.traced {
			plain.opsMS = fastestReplays(replays)
			var sum float64
			for _, ms := range plain.opsMS {
				sum += ms
			}
			plain.repRate = []float64{perCampaign / (sum / 1e3)}
		}
		plain.extra = append(plain.extra, fmt.Sprintf("%-28s %14.6g %s", "campaign_s",
			perCampaign/median(plain.wallRate), "s (wall, median rep)"))
	} else {
		plain.extra = append(plain.extra, fmt.Sprintf("%-28s %14.6g %s", "sim_jobs_per_s",
			median(plain.wallRate), "1/s (wall, median rep)"))
	}
	if !r.traced {
		return plain, nil
	}
	out := traced
	out.extra = plain.extra
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.failures = append(out.failures, plain.failures...)
	for i, p := range profiles {
		shares, err := profileShares(p)
		if err != nil {
			return nil, err
		}
		pct := map[string]float64{}
		for l, v := range shares {
			pct["prof."+l+"_pct"] = v
		}
		out.layer = meanLayers(out.layer, pct, i+1)
	}
	out.layer["trace_overhead_pct"] = 100 * (plain.throughput()/traced.throughput() - 1)
	return out, nil
}

// fastestReplays returns each operation's lowest cost over reps that ran
// the same operations in the same order. Interference from the host only
// ever adds time, so the fastest replay is the steadiest estimate of what
// an operation costs.
func fastestReplays(reps [][]float64) []float64 {
	out := append([]float64(nil), reps[0]...)
	for _, rep := range reps[1:] {
		for i := range out {
			out[i] = min(out[i], rep[i])
		}
	}
	return out
}

// meanLayers folds the n-th sample of each metric into a running mean.
func meanLayers(acc, add map[string]float64, n int) map[string]float64 {
	if acc == nil {
		acc = map[string]float64{}
	}
	for k, v := range add {
		acc[k] += (v - acc[k]) / float64(n)
	}
	return acc
}

// cpuModel is the host's CPU model name, as perfgate records it.
func cpuModel() string { return perfgate.DetectHost().CPU }

// commit is the VCS revision the binary was built from, "unknown" when it
// was built outside a git checkout (the source digest still identifies it).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and go.mod file under root (paths
// and contents, in path order), skipping hidden and build directories, so
// two results can be matched to the same source without git.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
