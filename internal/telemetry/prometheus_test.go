package telemetry

import (
	"bufio"
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact exposition output of a tagged
// snapshot — the wire format scrapers parse: one family split across
// non-adjacent fields and a nested struct is rendered once, in the place
// of its first member; a bool is 0/1; a histogram is cumulative buckets,
// +Inf, _sum and _count; untagged non-numeric fields are skipped.
func TestPrometheusGolden(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(99) // overflow bucket
	type inner struct {
		Failed uint64  `prom:"ipcpd_jobs_total{outcome=failed},counter"`
		Rate   float64 `prom:"ipcpd_rate,gauge" help:"A rate."`
	}
	snap := struct {
		Admitted uint64            `prom:"ipcpd_jobs_total{outcome=admitted},counter" help:"Jobs admitted."`
		Depth    int               `prom:"ipcpd_queue_depth,gauge" help:"Queued jobs."`
		Draining bool              `prom:"ipcpd_draining,gauge" help:"1 while draining."`
		Name     string            `json:"name"`
		Inner    inner             `json:"inner"`
		Exec     HistogramSnapshot `prom:"ipcpd_job_execution_seconds,histogram" help:"Job execution latency."`
		Twice    uint64            `prom:"ipcpd_pairs_total{a=x,b=y},counter" help:"Two labels."`
	}{42, -7, true, "skipped", inner{3, 0.25}, h.Snapshot(), 1}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP ipcpd_jobs_total Jobs admitted.",
		"# TYPE ipcpd_jobs_total counter",
		`ipcpd_jobs_total{outcome="admitted"} 42`,
		`ipcpd_jobs_total{outcome="failed"} 3`,
		"# HELP ipcpd_queue_depth Queued jobs.",
		"# TYPE ipcpd_queue_depth gauge",
		"ipcpd_queue_depth -7",
		"# HELP ipcpd_draining 1 while draining.",
		"# TYPE ipcpd_draining gauge",
		"ipcpd_draining 1",
		"# HELP ipcpd_rate A rate.",
		"# TYPE ipcpd_rate gauge",
		"ipcpd_rate 0.25",
		"# HELP ipcpd_job_execution_seconds Job execution latency.",
		"# TYPE ipcpd_job_execution_seconds histogram",
		`ipcpd_job_execution_seconds_bucket{le="0.1"} 1`,
		`ipcpd_job_execution_seconds_bucket{le="1"} 2`,
		`ipcpd_job_execution_seconds_bucket{le="10"} 3`,
		`ipcpd_job_execution_seconds_bucket{le="+Inf"} 4`,
		"ipcpd_job_execution_seconds_sum 101.55",
		"ipcpd_job_execution_seconds_count 4",
		"# HELP ipcpd_pairs_total Two labels.",
		"# TYPE ipcpd_pairs_total counter",
		`ipcpd_pairs_total{a="x",b="y"} 1`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	validatePrometheus(t, buf.Bytes())
}

// TestPrometheusRefuses: a metric without a series, and a tag the
// walker cannot honour, fail the render instead of dropping a series.
func TestPrometheusRefuses(t *testing.T) {
	type nested struct{ Lost uint64 }
	for name, snap := range map[string]any{
		"untagged counter":   struct{ N uint64 }{},
		"untagged bool":      struct{ On bool }{},
		"untagged nested":    struct{ In nested }{},
		"untagged histogram": struct{ H HistogramSnapshot }{},
		"no type": struct {
			N int `prom:"x_total" help:"h"`
		}{},
		"unknown type": struct {
			N int `prom:"x_total,summary" help:"h"`
		}{},
		"histogram as gauge": struct {
			H HistogramSnapshot `prom:"x,gauge" help:"h"`
		}{},
		"no help": struct {
			N int `prom:"x_total,counter"`
		}{},
		"mixed types": struct {
			A int `prom:"x{k=a},counter" help:"h"`
			B int `prom:"x{k=b},gauge"`
		}{},
	} {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, snap); err == nil || buf.Len() != 0 {
			t.Errorf("%s: err = %v, %d bytes written; want an error and nothing", name, err, buf.Len())
		}
	}
}

// promLine matches the exposition grammar this package emits: comments
// or `name{labels} value`.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$`)

// validatePrometheus scans an exposition body line by line against the
// grammar.
func validatePrometheus(t *testing.T, body []byte) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		n++
		if !promLine.MatchString(line) {
			t.Errorf("exposition line %d does not parse: %q", n, line)
		}
	}
	if n == 0 {
		t.Error("empty exposition body")
	}
}

func TestPrometheusEmptyHistogram(t *testing.T) {
	snap := struct {
		M HistogramSnapshot `prom:"m,histogram" help:"Empty."`
	}{NewHistogram(1, 2).Snapshot()}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	validatePrometheus(t, buf.Bytes())
	if !strings.Contains(buf.String(), `m_bucket{le="+Inf"} 0`) || !strings.Contains(buf.String(), "m_count 0") {
		t.Errorf("empty histogram exposition:\n%s", buf.String())
	}
}
