package main

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with the per-repetition values behind
// it. Value is the median of Samples, except for a serving workload's
// wall_s: the median over every run, with per-window medians as Samples.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// outcome is everything one run of one workload produced.
type outcome struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Setups    []float64         `json:"setup_samples"`
	Metrics   map[string]metric `json:"metrics"`
	Digest    string            `json:"model_digest"`
	Notes     []string          `json:"notes,omitempty"`

	// layer collects the per-layer metrics the workload itself can see
	// (result JSON, /metrics deltas, harness timings); traced pass only.
	layer map[string]float64
	// peakRSS, cpu and wall feed the host.* metrics.
	peakRSS, cpuTotal, wallTotal float64
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]metric{}, layer: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 8 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// timeSetup runs one set-up and records its time at nominal host speed;
// a build and a boot are CPU-bound throughout.
func (o *outcome) timeSetup(setup func() error) error {
	var err error
	var took float64
	speed := timedAt(func() {
		start := time.Now()
		err = setup()
		took = time.Since(start).Seconds()
	})
	if err == nil {
		o.Setups = append(o.Setups, took*speed)
	}
	return err
}

// setSamples reports the median of per-repetition samples.
func (o *outcome) setSamples(name, unit string, samples []float64) {
	o.Metrics[name] = metric{Value: median(samples), Unit: unit, Samples: samples}
}

// fromReps fills the three timing metrics from the repetitions, every
// host time scaled to the nominal host speed (see speed.go).
func (o *outcome) fromReps(reps []rep) {
	var walls, cpus, rates, speeds []float64
	for _, r := range reps {
		walls, cpus, rates = append(walls, r.wall), append(cpus, r.cpu), append(rates, r.instr/r.wall)
		speeds = append(speeds, r.speed)
		o.cpuTotal += r.rawCPU
		o.wallTotal += r.rawWall
	}
	o.setSamples("wall_s", "s", walls)
	o.setSamples("cpu_s", "s", cpus)
	o.setSamples("sim_instr_per_s", "instr/s", rates)
	o.noteSpeed(speeds)
	var plain, traced []float64
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r.wall)
		} else {
			plain = append(plain, r.wall)
		}
	}
	o.layer["host.trace_overhead_frac"] = overhead(plain, traced)
}

// noteSpeed records the host speed the run saw, so a reader can undo the
// normalisation: raw seconds are about normalised seconds / speed.
func (o *outcome) noteSpeed(speeds []float64) {
	o.layer["host.speed_factor"] = median(speeds)
	s := sorted(speeds)
	o.Notes = append(o.Notes, fmt.Sprintf("host speed factor: median %.3f, range %.3f-%.3f over %d repetitions (1 = nominal; times above are scaled to nominal speed)",
		median(s), s[0], s[len(s)-1], len(s)))
}

// A workload knows how to set itself up (everything a user must wait
// for before the first operation: warm-cache build, daemon boot), how
// to run operations against the system for a time budget, and how to
// tear down. setup and teardown may be called several times in a run.
type workload interface {
	setup(ctx context.Context, e *env, seed int64, sp *span) error
	measure(ctx context.Context, e *env, seed int64, seconds float64, sp *span, out *outcome)
	teardown()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "single_stream":
		return &simWorkload{name: name, warmup: 100_000, measureN: 600_000, cores: 1, batch: 1,
			args: []string{"-workload", "lbm-94"}}, nil
	case "single_pointer":
		return &simWorkload{name: name, warmup: 20_000, measureN: 100_000, cores: 1, batch: 8,
			args: []string{"-workload", "mcf-994"}}, nil
	case "mix8":
		return &simWorkload{name: name, warmup: 2_000, measureN: 6_000, cores: 8, batch: 2,
			args: []string{"-mix", "lbm-94,mcf-1536,bwaves-2931,exchange2-387,roms-1070,omnetpp-17,gcc-2226,xalancbmk-165"}}, nil
	case "paper_figs":
		return &figsWorkload{}, nil
	case "sweep_grid":
		return &sweepWorkload{}, nil
	case "serve_cold":
		return &serveWorkload{name: name}, nil
	case "serve_repeat":
		return &serveWorkload{name: name, repeat: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
}

// A run sets the workload up setupsBefore times before measuring
// (keeping the last) and setupsAfter times after; setup_s is the median.
// The host's speed for process-heavy work such as a build flips between
// modes ~30% apart that last for seconds, so samples taken only at one
// end of the run would all land in one mode.
const (
	setupsBefore = 3
	setupsAfter  = 2
)

// runWorkload sets the workload up, measures it for the budget, sets it
// up again for the remaining set-up samples, and tears it down.
func runWorkload(ctx context.Context, e *env, name string, seed int64, seconds float64) (*outcome, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	e.tr.resume()
	root := e.tr.start(nil, "workload."+name)
	defer root.end()
	defer w.teardown()
	setups := func(n int) error {
		for i := 0; i < n; i++ {
			w.teardown()
			if err := out.timeSetup(func() error { return w.setup(ctx, e, seed, root) }); err != nil {
				return fmt.Errorf("%s: setup: %w", name, err)
			}
		}
		return nil
	}
	if err := setups(setupsBefore); err != nil {
		return nil, err
	}
	// Outstanding operations count as failed once the deadline passes;
	// nothing may hang the harness.
	mctx, cancel := context.WithTimeout(ctx, time.Duration(seconds*float64(time.Second))+workloadGrace)
	defer cancel()
	w.measure(mctx, e, seed, seconds, root, out)
	e.tr.resume() // a traced pass ends on whichever repetition came last
	if mctx.Err() != nil && ctx.Err() == nil {
		out.fail("workload deadline (%.0fs + %s) passed", seconds, workloadGrace)
	}
	if err := setups(setupsAfter); err != nil {
		return nil, err
	}
	out.setSamples("setup_s", "s", out.Setups)
	if out.Attempted == 0 {
		out.Attempted = 1
		out.fail("no operation completed")
	}
	return out, ctx.Err()
}

// workloadGrace is how far past its time budget a workload may run
// before its outstanding operations are counted as failed.
const workloadGrace = 60 * time.Second

// repeat calls do(i) for i = 0, 1, ... until the budget is spent. A
// repetition starts only while the mean cost of those so far still
// fits, so a run ends close to its budget instead of one repetition
// past it; at least minReps run regardless.
func repeat(ctx context.Context, seconds float64, minReps int, do func(i int) bool) {
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		if i >= minReps {
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(i) > seconds {
				return
			}
		}
		if !do(i) {
			return
		}
	}
}

// tracedRep decides whether repetition i of a traced pass records
// spans: odd ones do, even ones run plain, so the two sets interleave
// and their difference is the tracing overhead, not host drift.
func (e *env) tracedRep(i int) bool {
	traced := e.tr != nil && i%2 == 1
	if e.tr != nil {
		e.tr.paused.Store(!traced)
	}
	return traced
}

// repSpan opens the span of repetition i; nil on the untraced pass and
// on a traced pass's plain repetitions.
func (e *env) repSpan(root *span, workload string, i int) *span {
	if !e.tracedRep(i) {
		return nil
	}
	sp := e.tr.start(root, "rep")
	if sp != nil {
		sp.Rep = fmt.Sprintf("%s/%d", workload, i)
	}
	return sp
}

func minReps(e *env) int {
	if e.tr != nil {
		return 4 // two plain, two traced
	}
	return 3
}

// overhead reports the traced-vs-plain slowdown of a traced pass.
func overhead(plain, traced []float64) float64 {
	if len(plain) == 0 || len(traced) == 0 || median(plain) == 0 {
		return 0
	}
	return median(traced)/median(plain) - 1
}

// --- ipcpsim workloads -------------------------------------------------

// simWorkload times whole ipcpsim processes. One repetition is a batch
// of processes run back to back, each on its own seed derived from the
// run's seed, and no two repetitions share a seed: at equal simulated
// cycle counts the simulator's host time differs by up to 2x between
// seeds of an irregular workload (whether fast-forward finds idle spans
// depends on the address layout), so a figure taken on one seed says
// little about the next. A run of ~10 repetitions of `batch` processes
// averages over ~10*batch seeds.
type simWorkload struct {
	name             string
	args             []string
	warmup, measureN uint64
	cores            int
	batch            int
}

func (w *simWorkload) setup(ctx context.Context, e *env, seed int64, sp *span) error {
	return e.build(ctx, sp, "ipcpsim")
}

func (w *simWorkload) teardown() {}

// procSeed is the seed of process j of repetition i.
func (w *simWorkload) procSeed(seed int64, i, j int) int64 {
	s := seed*100_003 + int64(i*w.batch+j) + 1
	if s == 0 {
		s = 1 // ipcpsim reads 0 as "default seed"
	}
	return s
}

// runOne runs one ipcpsim process and returns its checked result.
func (w *simWorkload) runOne(ctx context.Context, e *env, sp *span, procSeed int64, extra ...string) (procResult, []byte, *simResult, error) {
	warm, meas := e.scaled(w.warmup), e.scaled(w.measureN)
	args := append(append([]string{}, w.args...),
		"-l1", "ipcp", "-l2", "ipcp",
		"-warmup", strconv.FormatUint(warm, 10), "-measure", strconv.FormatUint(meas, 10),
		"-seed", strconv.FormatInt(procSeed, 10), "-json")
	r := e.runProc(ctx, sp, "ipcpsim", append(args, extra...)...)
	if r.Err != nil {
		return r, nil, nil, r.Err
	}
	psp := sp.child("parse")
	defer psp.end()
	canon, err := canonicalJSON(r.Stdout)
	if err != nil {
		return r, nil, nil, err
	}
	res, err := parseSimResult(r.Stdout)
	if err != nil {
		return r, nil, nil, err
	}
	if res.Instructions != meas || res.Cores != w.cores {
		return r, nil, nil, fmt.Errorf("result has %d cores x %d instructions, want %d x %d", res.Cores, res.Instructions, w.cores, meas)
	}
	return r, canon, res, nil
}

func (w *simWorkload) measure(ctx context.Context, e *env, seed int64, seconds float64, root *span, out *outcome) {
	delivered := float64(e.scaled(w.warmup)+e.scaled(w.measureN)) * float64(w.cores) // per process
	var reps []rep
	var first []byte // canonical result of repetition 0, process 0
	var canons [][]byte
	var results []*simResult
	repeat(ctx, seconds, minReps(e), func(i int) bool {
		sp := e.repSpan(root, w.name, i)
		defer sp.end()
		r := rep{traced: sp != nil}
		for j := 0; j < w.batch; j++ {
			var extra []string
			if r.traced {
				extra = []string{"-cpuprofile", filepath.Join(e.artDir, fmt.Sprintf("%s-rep%d-%d.pprof", w.name, i, j))}
			}
			var pr procResult
			var canon []byte
			var res *simResult
			var err error
			var wall float64
			// Each process is bracketed by its own speed probes: the
			// host's speed moves within a second.
			speed := timedAt(func() {
				start := time.Now()
				pr, canon, res, err = w.runOne(ctx, e, sp, w.procSeed(seed, i, j), extra...)
				wall = time.Since(start).Seconds()
			})
			out.Attempted++
			if err != nil {
				out.fail("rep %d process %d: %v", i, j, err)
				return ctx.Err() == nil
			}
			// The simulator is one CPU-bound thread.
			r.add(newRep(wall, pr.CPU, pr.CPU, delivered, speed, 1))
			if pr.RSSMB > out.peakRSS {
				out.peakRSS = pr.RSSMB
			}
			if i == 0 {
				// The digest and the model metrics cover the first
				// repetition's seeds: a fixed set for a given seed.
				canons, results = append(canons, canon), append(results, res)
				if j == 0 {
					first = canon
				}
			}
		}
		r.speed /= float64(w.batch)
		reps = append(reps, r)
		return true
	})
	if len(reps) == 0 {
		return
	}
	// Same seed, same bytes: repeat the very first process, untimed.
	e.tr.resume()
	out.Attempted++
	if _, canon, _, err := w.runOne(ctx, e, root.child("determinism"), w.procSeed(seed, 0, 0)); err != nil {
		out.fail("determinism re-run: %v", err)
	} else if string(canon) != string(first) {
		out.fail("determinism re-run: result differs from the first run of the same seed")
	}
	out.fromReps(reps)
	out.Digest = digest(canons...)
	if e.tr != nil {
		for k, v := range modelMetrics(results) {
			out.layer[k] = v
		}
		out.layer["sim.ns_per_sim_cycle"] = reps[0].wall * 1e9 / out.layer["sim.cycles"]
	}
}

// --- experiments CLI workload ------------------------------------------

// figsWorkload times the experiments CLI regenerating seven of the
// paper's tables. The CLI has no seed flag, so the seed is ignored.
type figsWorkload struct{}

const (
	figsIDs     = "fig7,fig8,fig10,fig12,fig13a,fig13b,tab1"
	figsWarmup  = 5_000
	figsMeasure = 10_000
)

func (w *figsWorkload) setup(ctx context.Context, e *env, seed int64, sp *span) error {
	return e.build(ctx, sp, "experiments")
}

func (w *figsWorkload) teardown() {}

var executedRE = regexp.MustCompile(`\((\d+) simulations executed\)`)

func (w *figsWorkload) measure(ctx context.Context, e *env, seed int64, seconds float64, root *span, out *outcome) {
	out.Notes = append(out.Notes, "paper_figs ignores the seed: the experiments CLI has no -seed flag")
	warm, meas := e.scaled(figsWarmup), e.scaled(figsMeasure)
	dir, err := e.tempDir("figs")
	if err != nil {
		out.Attempted++
		out.fail("%v", err)
		return
	}
	var reps []rep
	var first string
	repeat(ctx, seconds, minReps(e), func(i int) bool {
		sp := e.repSpan(root, "paper_figs", i)
		md := filepath.Join(dir, fmt.Sprintf("figs-%d.md", i))
		args := []string{"-run", figsIDs, "-scale", "quick",
			"-warmup", strconv.FormatUint(warm, 10), "-measure", strconv.FormatUint(meas, 10), "-out", md}
		if sp != nil {
			args = append(args, "-cpuprofile", filepath.Join(e.artDir, fmt.Sprintf("paper_figs-rep%d.pprof", i)))
		}
		var r procResult
		var text string
		var speedup, wall float64
		var sims int
		var err error
		speed := timedAt(func() {
			start := time.Now()
			r = e.runProc(ctx, sp, "experiments", args...)
			psp := sp.child("parse")
			if err = r.Err; err == nil {
				text, speedup, err = checkFigures(md)
			}
			if err == nil {
				if m := executedRE.FindSubmatch(r.Stderr); m == nil {
					err = fmt.Errorf("no \"simulations executed\" count on stderr")
				} else {
					sims, _ = strconv.Atoi(string(m[1]))
				}
			}
			wall = time.Since(start).Seconds()
			psp.end()
		})
		sp.end()

		out.Attempted++
		switch {
		case err != nil:
			out.fail("rep %d: %v", i, err)
			return ctx.Err() == nil
		case first == "":
			first = text
			out.layer["model.ipcp_speedup"] = speedup
		case text != first:
			out.fail("rep %d: tables differ from rep 0 (simulation is not deterministic)", i)
			return true
		}
		// Every figure in the set is single-core, so each simulation
		// delivers warmup+measure instructions. The Session runs them on
		// every CPU.
		rp := newRep(wall, r.CPU, r.CPU, float64(sims)*float64(warm+meas), speed, e.nproc)
		rp.traced = sp != nil
		reps = append(reps, rp)
		if r.RSSMB > out.peakRSS {
			out.peakRSS = r.RSSMB
		}
		return true
	})
	if len(reps) == 0 {
		return
	}
	out.fromReps(reps)
	out.Digest = digest([]byte(first))
}
