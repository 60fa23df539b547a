package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesManifest holds BENCHMARK.json and the code to the
// same lists, and both to the limits the driver enforces.
func TestCatalogMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(top, k)
	}
	for k := range top {
		t.Errorf("BENCHMARK.json has a key the driver does not know: %q", k)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}

	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", mf.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(mf.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", mf.Paths)
	}
	if !reflect.DeepEqual(mf.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\nmanifest %+v\ncode     %+v", mf.Workloads, workloadDefs)
	}
	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the driver accepts 2 to 8", n)
	}
	for _, w := range mf.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %s is listed but not implemented: %v", w.Name, err)
		}
	}

	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the driver's alphabet or length", kind, name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside the driver's alphabet or length", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s %s: better = %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range mf.Workloads {
		check("workload", w.Name, "x", "lower")
	}

	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the code", len(mf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		g := mf.EndToEnd[i]
		check("end-to-end metric", g.Name, g.Unit, g.Better)
		if g.Bound == nil || g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || *g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, code %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("the driver requires a setup_s metric in s, lower is better")
	}

	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the code", len(mf.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver accepts at most 128", len(perLayer))
	}
	for i, d := range perLayer {
		g := mf.PerLayer[i]
		check("per-layer metric", g.Name, g.Unit, g.Better)
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, code %+v", i, g, d)
		}
	}
}
