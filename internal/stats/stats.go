// Package stats provides the derived metrics the paper reports:
// speedups over a no-prefetching baseline, geometric means, weighted
// speedup for multi-core mixes, prefetch coverage against a baseline
// run, and over-prediction.
package stats

import (
	"fmt"
	"math"
)

// Geomean returns the geometric mean of xs (1.0 for empty input).
// Non-positive values are clamped to a tiny epsilon so a single broken
// sample cannot produce NaN.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Speedup returns ipc/base.
func Speedup(ipc, base float64) float64 {
	if base == 0 {
		return 0
	}
	return ipc / base
}

// WeightedSpeedup implements the paper's multi-core metric:
// Σ IPC_together(i) / IPC_alone(i). Mismatched slice lengths are a
// caller bug, reported as an error rather than a panic — a metrics
// library must not crash the harness mid-campaign.
func WeightedSpeedup(together, alone []float64) (float64, error) {
	if len(together) != len(alone) {
		return 0, fmt.Errorf("stats: weighted speedup length mismatch: %d together vs %d alone",
			len(together), len(alone))
	}
	var ws float64
	for i := range together {
		if alone[i] == 0 {
			continue
		}
		ws += together[i] / alone[i]
	}
	return ws, nil
}

// Coverage is the paper's prefetch coverage: the fraction of the
// baseline's demand misses removed by prefetching.
//
//	coverage = (baseMisses − prefMisses) / baseMisses
//
// It can be negative when prefetching pollutes (the paper's
// cactusBSSN case).
func Coverage(baseMisses, prefMisses uint64) float64 {
	if baseMisses == 0 {
		return 0
	}
	return (float64(baseMisses) - float64(prefMisses)) / float64(baseMisses)
}

// OverPrediction is the number of inaccurate prefetches (issued fills
// that were never used) relative to the baseline miss count; the
// paper's Figure 11 reports covered / uncovered / over-predicted on
// this scale.
func OverPrediction(fills, useful, baseMisses uint64) float64 {
	if baseMisses == 0 {
		return 0
	}
	if useful > fills {
		useful = fills
	}
	return float64(fills-useful) / float64(baseMisses)
}

// Ratio is a safe division helper.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
