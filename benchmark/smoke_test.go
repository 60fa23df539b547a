package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke builds the real binaries and runs every workload and every
// layer driver once with all counts divided by 20, traced, so a change
// that breaks a flag, a route, a result field or an internal API the
// drivers call fails here in seconds rather than in a full run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, true, true)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.workDir)
	defer e.killAll()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	for _, name := range workloadNames() {
		out, err := runWorkload(ctx, e, name, 1, 0.4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, out.Failed, out.Attempted, out.Problems)
		}
		if len(out.Digest) != 64 {
			t.Errorf("%s: no model digest", name)
		}
		for _, d := range endToEnd {
			if m := out.Metrics[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", name, d.Name, m, d.Unit)
			}
		}
		wr := &workloadResult{outcome: *out}
		// The layer drivers do not depend on the workload; once is enough.
		if name == workloadNames()[0] {
			if wr.Layer = layerMetrics(ctx, e, out, 0.5); wr.Layer == nil {
				t.Fatal("layer drivers failed")
			}
			for _, d := range perLayer {
				switch d.Name[:5] {
				case "coord", "serve", "exper":
					continue // counters of daemons this workload does not start
				}
				if _, ok := wr.Layer[d.Name]; !ok && d.Name != "model.ipcp_speedup" {
					t.Errorf("per-layer metric %s is not produced", d.Name)
				}
			}
		}
		// Both forms of the driver's line carry exactly the listed metrics.
		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			b, _ := json.Marshal(wr.driverLine(traced))
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(defs) || line.Attempted < 1 {
				t.Errorf("%s: driver line has %d metrics, want %d", name, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: driver line lacks %s", name, d.Name)
				}
			}
		}
	}

	// Layer metrics each daemon workload must have produced.
	path := filepath.Join(e.artDir, "smoke.trace.json")
	if err := e.tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("span file is not loadable JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" || ev.Dur < 0 || ev.Args["self_us"] == nil {
			t.Fatalf("malformed span %+v", ev)
		}
	}
	for _, want := range []string{"workload.mix8", "rep", "proc.ipcpsim", "proc.experiments",
		"http.POST./v1/sweeps", "http.poll", "setup.build", "driver.cache.cycle_idle_ns"} {
		if !names[want] {
			t.Errorf("no %q span in the trace", want)
		}
	}
}
