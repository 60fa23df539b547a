package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hostFingerprint says where a set of numbers was produced. Host-time
// figures from hosts that differ in CPU count or model do not compare.
type hostFingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func fingerprint(root string, seed int64) hostFingerprint {
	fp := hostFingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown", Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// A driver's checkout is not a git repository; the commit is then
	// simply not known.
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(b))
	}
	return fp
}

func (fp hostFingerprint) String() string {
	return fmt.Sprintf("nproc=%d cpu=%q GOMAXPROCS=%d go=%s kernel=%s commit=%.12s seed=%d",
		fp.NProc, fp.CPUModel, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.Commit, fp.Seed)
}

// results is the -out file.
type results struct {
	Fingerprint    hostFingerprint            `json:"fingerprint"`
	Seed           int64                      `json:"seed"`
	Seconds        float64                    `json:"seconds"`
	Traced         bool                       `json:"traced"`
	Smoke          bool                       `json:"smoke"`
	ModelValidated bool                       `json:"model_validated"`
	Workloads      map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	outcome
	Elapsed float64            `json:"elapsed_s"`
	Layer   map[string]float64 `json:"per_layer,omitempty"`
}

func (r *results) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// driverLine is the object the driver reads from the last output line.
func (w *workloadResult) driverLine(traced bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{w.Layer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{w.Metrics[d.Name].Value, d.Unit}
		}
	}
	return map[string]any{
		"correct":   w.Failed == 0,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	}
}

// layerMetrics assembles the traced pass's per-layer metrics: what the
// workload saw itself, the host.* figures, and the layer drivers' own
// measurements. A per-layer metric this workload does not exercise (the
// coordinator's counters on an ipcpsim run, say) reads 0.
func layerMetrics(ctx context.Context, e *env, out *outcome, driverSeconds float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range out.layer {
		m[k] = v
	}
	m["model.digest"] = digest48(out.Digest)
	m["host.peak_rss_mb"] = out.peakRSS
	if out.wallTotal > 0 {
		m["host.cpu_util"] = out.cpuTotal / (out.wallTotal * float64(e.nproc))
	}
	m["host.rep_spread"] = spread(out.Metrics["wall_s"].Samples)

	sp := e.tr.start(nil, "layers")
	defer sp.end()
	if err := e.buildLayers(ctx, sp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil
	}
	args := []string{"-seconds", fmt.Sprint(driverSeconds), "-dir", e.workDir}
	if e.smoke {
		args = append(args, "-smoke")
	}
	var procStart time.Duration
	if e.tr != nil {
		procStart = time.Since(e.tr.t0)
	}
	r := e.runProc(ctx, sp, "layers", args...)
	if r.Err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", r.Err)
		return nil
	}
	// One line per driver: name, value, and the loop's start and end
	// relative to the process start, which become the drivers' spans.
	var lines []struct {
		Name    string  `json:"name"`
		Value   float64 `json:"value"`
		StartMS float64 `json:"start_ms"`
		EndMS   float64 `json:"end_ms"`
	}
	if err := json.Unmarshal(r.Stdout, &lines); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: layer drivers:", err)
		return nil
	}
	for _, ln := range lines {
		m[ln.Name] = ln.Value
		e.tr.add(sp, "driver."+ln.Name, procStart+ms(ln.StartMS), procStart+ms(ln.EndMS))
	}
	return m
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func printHeader(w io.Writer, r *results) {
	pass := "untraced pass: end-to-end metrics"
	if r.Traced {
		pass = "traced pass: per-layer metrics (end-to-end figures below are not for comparison)"
	}
	fmt.Fprintf(w, "ipcp benchmark - %s\n", pass)
	fmt.Fprintf(w, "host: %s\n", r.Fingerprint)
	fmt.Fprintf(w, "model: unvalidated against hardware or ChampSim; simulated figures are a shape reference only\n")
	if r.Smoke {
		fmt.Fprintf(w, "SMOKE MODE: counts divided by 20; not a measurement\n")
	}
}

func printWorkload(w io.Writer, name string, r *workloadResult, traced bool) {
	fmt.Fprintf(w, "\n== %s  (%.1fs)\n", name, r.Elapsed)
	for _, d := range endToEnd {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-18s %14.6g %-8s n=%-3d spread=%5.1f%%  bound=%2.0f%% %s\n",
			d.Name, m.Value, m.Unit, len(m.Samples), 100*spread(m.Samples), 100*d.Bound, d.Better)
	}
	frac := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "  %-18s %14.6g %-8s %d failed of %d attempted\n", "failed_frac", frac, "ratio", r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %-18s %s\n", "model.digest", r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if !traced {
		return
	}
	names := make([]string, 0, len(r.Layer))
	for k := range r.Layer {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", k, r.Layer[k], units[k])
	}
}
