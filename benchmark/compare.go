package main

import (
	"fmt"
	"io"
)

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	unresolved verdict = "unresolved"
	worse      verdict = "worse"
)

// judge compares candidate b against base a for one metric. change is
// how much worse b's median is, as a share of a's (negative = better).
// Within the bound either way the metric is "same". Beyond it the
// verdict is "worse"/"better" only when the samples support it: if
// either side's own spread exceeds the bound and the two sample sets
// interleave (not every run of one side beats every run of the other),
// the difference is not resolved by these runs.
func judge(def metricDef, a, b metric) (verdict, float64) {
	if a.Value == 0 {
		return unresolved, 0
	}
	change := (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case change > def.Bound:
		if noisy(def, a, b) {
			return unresolved, change
		}
		return worse, change
	case change < -def.Bound:
		if noisy(def, a, b) {
			return unresolved, change
		}
		return better, change
	}
	return same, change
}

func noisy(def metricDef, a, b metric) bool {
	if spread(a.Samples) <= def.Bound && spread(b.Samples) <= def.Bound {
		return false
	}
	return interleave(a.Samples, b.Samples)
}

// interleave reports whether the two sample sets overlap: neither lies
// wholly above the other.
func interleave(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	return !(sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0])
}

// runCompare prints one row per (workload, end-to-end metric) of two
// results files and returns the exit code: non-zero on any "worse", on
// more failed operations, or when the files do not compare at all.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b *results
		if b, err = loadResults(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return 2
}

func compareResults(w io.Writer, a, b *results) int {
	fmt.Fprintf(w, "base:      %s\ncandidate: %s\n", a.Fingerprint, b.Fingerprint)
	if a.Fingerprint.NProc != b.Fingerprint.NProc || a.Fingerprint.CPUModel != b.Fingerprint.CPUModel {
		fmt.Fprintln(w, "compare: refusing: the files come from hosts that differ in CPU count or model; host-time metrics do not compare")
		return 2
	}
	if a.Traced || b.Traced || a.Smoke || b.Smoke {
		fmt.Fprintln(w, "compare: refusing: end-to-end metrics are compared from untraced, full-size passes only")
		return 2
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(w, "compare: refusing: run length differs (%gs vs %gs)\n", a.Seconds, b.Seconds)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-15s %-16s %13s %13s  %-18s %6s  %s\n", "workload", "metric", "base", "candidate", "ratio", "bound", "verdict")
	for _, wl := range workloadDefs {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, mb := ra.Metrics[def.Name], rb.Metrics[def.Name]
			v, _ := judge(def, ma, mb)
			ratio := "n/a"
			if ma.Value != 0 {
				ratio = fmt.Sprintf("%.3fx of %.4g", mb.Value/ma.Value, ma.Value)
			}
			fmt.Fprintf(w, "%-15s %-16s %13.6g %13.6g  %-18s %5.0f%%  %s\n",
				wl.Name, def.Name, ma.Value, mb.Value, ratio, 100*def.Bound, v)
			if v == worse {
				code = 1
			}
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		v := same
		if fb > fa {
			v, code = worse, 1
		} else if fb < fa {
			v = better
		}
		fmt.Fprintf(w, "%-15s %-16s %13.6g %13.6g  %-18s %5.0f%%  %s\n", wl.Name, "failed_frac", fa, fb, "-", 0.0, v)
		if ra.Digest != rb.Digest {
			fmt.Fprintf(w, "%-15s model.digest differs: %.16s vs %.16s (simulated statistics changed, or the seeds differ)\n", wl.Name, ra.Digest, rb.Digest)
		}
	}
	return code
}
