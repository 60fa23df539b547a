package main

import (
	"bytes"
	"strings"
	"testing"
)

func m(samples ...float64) metric {
	return metric{Value: median(samples), Unit: "s", Samples: samples}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_instr_per_s", Unit: "instr/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metric
		want verdict
	}{
		{"within the bound", lower, m(1.00, 1.01, 0.99), m(1.05, 1.06, 1.04), same},
		{"just past the bound, tight samples", lower, m(1.00, 1.01, 0.99), m(1.12, 1.13, 1.11), worse},
		{"lower is better and it fell", lower, m(1.00, 1.01, 0.99), m(0.80, 0.81, 0.79), better},
		{"higher is better and it fell", higher, m(100, 101, 99), m(80, 81, 79), worse},
		{"higher is better and it rose", higher, m(100, 101, 99), m(120, 121, 119), better},
		// Medians 1.0 vs 1.2, but each side spreads by more than the
		// bound and the runs interleave: these runs cannot tell.
		{"noisy and interleaved", lower, m(0.7, 1.0, 1.0, 1.3), m(0.9, 1.2, 1.2, 1.5), unresolved},
		// As noisy, but every candidate run is slower than every base run.
		{"noisy but separated", lower, m(0.8, 1.0, 1.2, 1.25), m(1.5, 1.9, 2.0, 2.3), worse},
		{"no samples to doubt", lower, metric{Value: 1}, metric{Value: 1.5}, worse},
		{"zero base", lower, metric{Value: 0}, metric{Value: 1}, unresolved},
	} {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The change is reported as a share of the base, signed so that
	// positive is worse whichever way the metric runs.
	if _, change := judge(higher, m(100), m(80)); !near(change, 0.20) {
		t.Errorf("change = %v, want +0.20 of the base", change)
	}
}

func resultsWith(wall float64, failed int) *results {
	out := newOutcome()
	out.Attempted, out.Failed = 10, failed
	for _, d := range endToEnd {
		out.Metrics[d.Name] = m(1, 1, 1)
	}
	out.Metrics["wall_s"] = m(wall, wall, wall)
	return &results{
		Fingerprint: hostFingerprint{NProc: 2, CPUModel: "cpu-a"},
		Seconds:     10,
		Workloads:   map[string]*workloadResult{"mix8": {outcome: *out}},
	}
}

func TestCompareResults(t *testing.T) {
	var buf bytes.Buffer
	if code := compareResults(&buf, resultsWith(1, 0), resultsWith(1.05, 0)); code != 0 {
		t.Errorf("within bounds: exit %d, want 0\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareResults(&buf, resultsWith(1, 0), resultsWith(1.5, 0)); code != 1 || !strings.Contains(buf.String(), "worse") {
		t.Errorf("regression: exit %d, want 1 and a worse row\n%s", code, buf.String())
	}
	// Every ratio is printed with its base.
	if !strings.Contains(buf.String(), "1.500x of 1") {
		t.Errorf("ratio is missing its base:\n%s", buf.String())
	}
	buf.Reset()
	if code := compareResults(&buf, resultsWith(1, 0), resultsWith(1, 1)); code != 1 {
		t.Errorf("more failed operations: exit %d, want 1\n%s", code, buf.String())
	}
	buf.Reset()
	other := resultsWith(1, 0)
	other.Fingerprint.CPUModel = "cpu-b"
	if code := compareResults(&buf, resultsWith(1, 0), other); code != 2 || !strings.Contains(buf.String(), "refusing") {
		t.Errorf("different CPU model: exit %d, want a refusal (2)\n%s", code, buf.String())
	}
	buf.Reset()
	other = resultsWith(1, 0)
	other.Fingerprint.NProc = 8
	if code := compareResults(&buf, resultsWith(1, 0), other); code != 2 {
		t.Errorf("different CPU count: exit %d, want a refusal (2)", code)
	}
}
