package perfgate

import (
	"fmt"
	"math"
	"sort"
)

// Verdict is the outcome of comparing a measured run against its ledger
// baseline.
type Verdict string

const (
	// VerdictRegression: at least one metric moved against its direction
	// by more than the tolerance band — the gate fails.
	VerdictRegression Verdict = "regression"
	// VerdictImprovement: no regression, and at least one metric moved
	// in its favored direction beyond the band.
	VerdictImprovement Verdict = "improvement"
	// VerdictWithinNoise: every shared metric stayed inside the band.
	VerdictWithinNoise Verdict = "within-noise"
	// VerdictNoBaseline: the ledger holds no perfgate entry for this
	// case and machine class yet; the run seeds one.
	VerdictNoBaseline Verdict = "no-baseline"
)

// MetricDelta is one metric's movement against the baseline.
type MetricDelta struct {
	Metric   string
	Base     float64
	Current  float64
	DeltaPct float64 // signed; +Inf when the baseline was zero
	Verdict  Verdict
}

func (d MetricDelta) String() string {
	return fmt.Sprintf("%s: %g -> %g (%+.1f%%, %s)", d.Metric, d.Base, d.Current, d.DeltaPct, d.Verdict)
}

// RunComparison is a full run-vs-baseline comparison.
type RunComparison struct {
	Baseline *Entry // nil when none exists
	// ThresholdPct is the band actually applied: the case tolerance
	// widened by the measured noise of both runs.
	ThresholdPct float64
	Deltas       []MetricDelta
	Verdict      Verdict
}

// lowerBetter reports a metric's direction. Unknown metrics default to
// lower-is-better — the conservative choice for cost-like numbers.
func lowerBetter(metric string) bool {
	switch metric {
	case "speedup", "efficiency", "jobs_per_sec", "req_per_sec":
		return false
	}
	return true
}

// contextMetrics are recorded for reproducibility but never compared.
var contextMetrics = map[string]bool{"workers": true, "cores": true}

// zeroBaselineFloor: when the baseline is exactly zero (0 allocs/op), any
// relative delta is undefined; growth only counts as a regression past
// this absolute floor, so sub-unit measurement jitter around zero cannot
// flip the gate.
const zeroBaselineFloor = 1.0

// Compare checks a measured run against the newest same-case,
// same-machine-class ledger entry. The band is max(case tolerance, this
// run's noise, the baseline's recorded noise): a delta smaller than what
// repeated trials disagree by means nothing.
func Compare(run *CaseRun, baseline *Entry) *RunComparison {
	cmp := &RunComparison{Baseline: baseline, Verdict: VerdictNoBaseline}
	if baseline == nil {
		return cmp
	}
	cmp.ThresholdPct = math.Max(run.Case.TolerancePct, math.Max(run.NoisePct, baseline.NoisePct))
	base := baseline.Metrics()
	keys := make([]string, 0, len(run.Median))
	for k := range run.Median {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cmp.Verdict = VerdictWithinNoise
	for _, k := range keys {
		if contextMetrics[k] {
			continue
		}
		bv, ok := base[k]
		if !ok {
			continue
		}
		d := compareMetric(k, bv, run.Median[k], cmp.ThresholdPct)
		cmp.Deltas = append(cmp.Deltas, d)
		switch d.Verdict {
		case VerdictRegression:
			cmp.Verdict = VerdictRegression
		case VerdictImprovement:
			if cmp.Verdict != VerdictRegression {
				cmp.Verdict = VerdictImprovement
			}
		}
	}
	return cmp
}

func compareMetric(metric string, base, cur, thresholdPct float64) MetricDelta {
	d := MetricDelta{Metric: metric, Base: base, Current: cur, Verdict: VerdictWithinNoise}
	lower := lowerBetter(metric)
	if base == 0 {
		switch {
		case cur == 0:
			// flat at zero
		case math.Abs(cur) <= zeroBaselineFloor:
			// sub-unit jitter around a zero baseline
		case lower:
			d.DeltaPct = math.Inf(1)
			d.Verdict = VerdictRegression
		default:
			d.DeltaPct = math.Inf(1)
			d.Verdict = VerdictImprovement
		}
		return d
	}
	d.DeltaPct = 100 * (cur - base) / math.Abs(base)
	worse := d.DeltaPct > thresholdPct
	better := d.DeltaPct < -thresholdPct
	if !lower {
		worse, better = better, worse
	}
	switch {
	case worse:
		d.Verdict = VerdictRegression
	case better:
		d.Verdict = VerdictImprovement
	}
	return d
}
