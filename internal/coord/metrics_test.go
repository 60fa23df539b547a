package coord

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ipcp/internal/serve"
	"ipcp/internal/telemetry"
)

// This file holds both daemons' /metrics surfaces — ipcpd's
// serve.MetricsSnapshot and the coordinator's MetricsSnapshot, which
// embeds it — to their recorded wire forms, JSON and Prometheus alike.

var update = flag.Bool("update", false, "rewrite testdata/*_metrics.{prom,json} from the current snapshots")

// fill sets every leaf of a metrics snapshot to a fixed value derived
// from its field path: numbers to a hash of the path (some above 1e6),
// bools to true, histograms to one fixed four-observation snapshot. A
// field added later leaves every other field's value as it was.
func fill(v reflect.Value, path string) {
	if h, ok := v.Addr().Interface().(*telemetry.HistogramSnapshot); ok {
		src := telemetry.NewHistogram(0.1, 1, 10)
		for _, x := range []float64{0.05, 0.5, 2, 99} {
			src.Observe(x)
		}
		*h = src.Snapshot()
		return
	}
	f := fnv.New32a()
	f.Write([]byte(path))
	n := uint64(f.Sum32() % 2_000_000)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint64:
		v.SetUint(n)
	}
}

// exposition is a parsed Prometheus text body: every sample's value by
// series (name and labels as written), and each family's HELP and TYPE.
type exposition struct {
	samples   map[string]float64
	help, typ map[string]string
}

// parseExposition parses body and checks the exposition's shape: every
// sample sits inside its own family's block, under that family's one
// HELP and one TYPE line, so a family's samples are contiguous; and no
// family or series appears twice.
func parseExposition(t *testing.T, body string) exposition {
	t.Helper()
	e := exposition{samples: map[string]float64{}, help: map[string]string{}, typ: map[string]string{}}
	cur := "" // the family whose block the scan is in
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			kind, rest, _ := strings.Cut(rest, " ")
			name, text, _ := strings.Cut(rest, " ")
			m := map[string]map[string]string{"HELP": e.help, "TYPE": e.typ}[kind]
			if _, dup := m[name]; m == nil || dup {
				t.Errorf("line %d: %q: unknown comment, or a family's second %s", i+1, line, kind)
				continue
			}
			m[name], cur = text, name
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		series := line[:max(cut, 0)]
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		name, _, _ := strings.Cut(series, "{")
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if e.typ[cur] == "histogram" && name == cur+suffix {
				fam = cur
			}
		}
		_, hasHelp := e.help[fam]
		_, hasType := e.typ[fam]
		_, dup := e.samples[series]
		if err != nil || fam != cur || !hasHelp || !hasType || dup {
			t.Errorf("line %d: %q: not a new sample inside its family's HELP/TYPE block (block: %q, err: %v)", i+1, line, cur, err)
			continue
		}
		e.samples[series] = v
	}
	return e
}

// diffMap reports every key whose value differs between got and want.
func diffMap[V comparable](t *testing.T, what string, got, want map[string]V) {
	t.Helper()
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		if g != w || gok != wok {
			diffs = append(diffs, fmt.Sprintf("%s: got %v (present %v), want %v (present %v)", k, g, gok, w, wok))
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Errorf("%s %s", what, d)
	}
}

// TestMetricsMatchRecorded renders a fully populated snapshot of each
// daemon and holds it to testdata, recorded from the hand-written
// exposition writers these snapshots' prom tags replaced. Prometheus:
// the same families, HELP, TYPE and sample values, plus only the series
// that writer lacked (the session's abandoned runs, the journal's
// enabled flag); integers are compared as values, so 1e+06 equals
// 1000000. JSON: the same key paths and values, plus only ipcpd's
// trace_spans_dropped. Rendering also fails on any numeric or bool
// leaf without a prom tag, so a new JSON metric without a series fails
// here.
func TestMetricsMatchRecorded(t *testing.T) {
	var sm serve.MetricsSnapshot
	fill(reflect.ValueOf(&sm).Elem(), "")
	var cm MetricsSnapshot
	fill(reflect.ValueOf(&cm).Elem(), "")
	var ipcpd, ipcpc bytes.Buffer
	build := serve.BuildInfo{Version: "v1.2.3", Revision: "0123abcd", GoVersion: "go1.24.0"}
	if err := serve.WritePrometheus(&ipcpd, sm, build); err != nil {
		t.Fatal(err)
	}
	if err := serve.WritePrometheus(&ipcpc, cm, build); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		prom      []byte
		snapshot  any
		newSeries []string
		newKeys   []string
	}{
		{"ipcpd", ipcpd.Bytes(), sm, []string{"ipcpd_sim_runs_abandoned_total", "ipcpd_journal_enabled"}, []string{"trace_spans_dropped"}},
		{"ipcpc", ipcpc.Bytes(), cm, nil, nil},
	} {
		js, err := json.MarshalIndent(tc.snapshot, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		promFile := filepath.Join("testdata", tc.name+"_metrics.prom")
		jsonFile := filepath.Join("testdata", tc.name+"_metrics.json")
		if *update {
			os.WriteFile(promFile, tc.prom, 0o644)
			os.WriteFile(jsonFile, append(js, '\n'), 0o644)
		}
		wantProm, err := os.ReadFile(promFile)
		if err != nil {
			t.Fatal(err)
		}
		got, want := parseExposition(t, string(tc.prom)), parseExposition(t, string(wantProm))
		for _, fam := range tc.newSeries {
			if _, ok := got.samples[fam]; !ok {
				t.Errorf("%s: no %s series", tc.name, fam)
			}
			if _, recorded := want.typ[fam]; !recorded {
				delete(got.samples, fam)
				delete(got.help, fam)
				delete(got.typ, fam)
			}
		}
		diffMap(t, tc.name+" sample", got.samples, want.samples)
		diffMap(t, tc.name+" HELP", got.help, want.help)
		diffMap(t, tc.name+" TYPE", got.typ, want.typ)

		var gotJSON, wantJSON map[string]any
		wantRaw, err := os.ReadFile(jsonFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wantRaw, &wantJSON); err != nil {
			t.Fatal(err)
		}
		json.Unmarshal(js, &gotJSON)
		for _, k := range tc.newKeys {
			if _, ok := gotJSON[k]; !ok {
				t.Errorf("%s: JSON lacks %q", tc.name, k)
			}
			if _, recorded := wantJSON[k]; !recorded {
				delete(gotJSON, k)
			}
		}
		if !reflect.DeepEqual(gotJSON, wantJSON) {
			t.Errorf("%s JSON differs from %s:\n%s", tc.name, jsonFile, js)
		}
	}
}

// TestMetricsExpositionLive scrapes both daemons' live /metrics the way
// Prometheus asks for it and holds the text to the exposition's shape
// (see parseExposition).
func TestMetricsExpositionLive(t *testing.T) {
	c, cts := newTestCoord(t)
	w := startWorker(t, cts.URL)
	waitWorkers(t, c, 1)
	for _, base := range []string{cts.URL, w.ts.URL} {
		req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/plain; version=0.0.4")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != telemetry.PrometheusContentType {
			t.Fatalf("%s/metrics = %d %q (%v)", base, resp.StatusCode, resp.Header.Get("Content-Type"), err)
		}
		if e := parseExposition(t, string(body)); len(e.samples) < 15 {
			t.Errorf("%s/metrics carries %d samples:\n%s", base, len(e.samples), body)
		}
	}
}
