package experiments

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipcp/internal/chaos"
	"ipcp/internal/prefetch"
	"ipcp/internal/stats"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// The robustness suite proves the harness's survival guarantees: a
// panicking prefetcher, a panicking or dead instruction stream, a
// cancelled context, and a corrupted cache entry each leave the session
// standing — degraded, flushed or resumed, never crashed.

func init() {
	// A stream that panics mid-measure, registered once for the whole
	// test binary (suite "test" keeps it out of the experiment suites).
	workload.Register(workload.Spec{
		Name: "fi-panic-stream", Suite: "test",
		NewStream: func(seed int64) trace.Stream {
			return &chaos.PanicStream{
				Inner:   &trace.SliceStream{Instrs: []trace.Instr{{IP: 0x400000, Loads: [trace.MaxLoads]uint64{0x10000}}}, Loop: true},
				PanicAt: 5_000,
			}
		},
	})
	workload.Register(workload.Spec{
		Name: "fi-dead-stream", Suite: "test",
		NewStream: func(seed int64) trace.Stream { return chaos.DeadStream{} },
	})
	// Faulty prefetchers are data like any other: registered names.
	prefetch.Register("fi-panic", func(prefetch.Level) prefetch.Prefetcher {
		return &chaos.PanicPrefetcher{PanicAt: 100}
	})
	prefetch.Register("fi-runaway", func(prefetch.Level) prefetch.Prefetcher {
		return &chaos.RunawayPrefetcher{Flood: 100_000}
	})
}

func TestPrefetcherPanicIsGuarded(t *testing.T) {
	s := NewSession(tiny)
	res, err := s.Run(RunSpec{Workloads: []string{"bwaves-98"}, L1D: "fi-panic"})
	// The guard absorbs the panic: the run completes unprefetched and
	// records the trip.
	if err != nil {
		t.Fatalf("guarded panicking prefetcher failed the run: %v", err)
	}
	if len(res.PrefetcherFaults) != 1 {
		t.Fatalf("PrefetcherFaults = %+v, want exactly one trip", res.PrefetcherFaults)
	}
	f := res.PrefetcherFaults[0]
	if f.Level != "L1D" || !strings.Contains(f.Reason, "panic") {
		t.Errorf("fault = %+v", f)
	}
	if res.IPC[0] <= 0 {
		t.Errorf("IPC = %v; the run must still have made progress", res.IPC)
	}
}

func TestRunawayPrefetcherIsGuarded(t *testing.T) {
	s := NewSession(tiny)
	res, err := s.Run(RunSpec{Workloads: []string{"bwaves-98"}, L1D: "fi-runaway"})
	if err != nil {
		t.Fatalf("guarded runaway prefetcher failed the run: %v", err)
	}
	if len(res.PrefetcherFaults) != 1 {
		t.Fatalf("PrefetcherFaults = %+v, want one budget trip", res.PrefetcherFaults)
	}
	if !strings.Contains(res.PrefetcherFaults[0].Reason, "budget") {
		t.Errorf("trip reason = %q, want a budget violation", res.PrefetcherFaults[0].Reason)
	}
}

func TestUnguardedPrefetcherPanicDegrades(t *testing.T) {
	// Every prefetcher runs guarded, so the panic that reaches the
	// worker is one outside prefetcher hooks: it must become a
	// PanicError, not a crash. The panicking stream exercises exactly
	// that path.
	s := NewSession(tiny)
	_, err := s.Run(RunSpec{Workloads: []string{"fi-panic-stream"}})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a PanicError", err)
	}
	if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "stream panic") {
		t.Errorf("PanicError = %q (stack %d bytes)", pe.Error(), len(pe.Stack))
	}
	if got := s.Stats().Faults; got != 1 {
		t.Errorf("Faults = %d, want the one degraded run", got)
	}
	// The error is memoized: re-running the spec replays the fault
	// without executing again.
	before := s.Executed()
	if _, err2 := s.Run(RunSpec{Workloads: []string{"fi-panic-stream"}}); !errors.As(err2, &pe) {
		t.Errorf("memoized rerun: err = %v", err2)
	}
	if s.Executed() != before {
		t.Error("failed spec re-executed instead of replaying the memoized fault")
	}
	// And a degraded run does not poison healthy ones.
	if _, err := s.Run(RunSpec{Workloads: []string{"bwaves-98"}}); err != nil {
		t.Errorf("healthy run after a fault: %v", err)
	}
}

func TestDeadStreamDegrades(t *testing.T) {
	s := NewSession(tiny)
	_, err := s.Run(RunSpec{Workloads: []string{"fi-dead-stream"}})
	if err == nil {
		t.Fatal("dead stream produced a result")
	}
	if Interrupted(err) {
		t.Errorf("dead stream error is fatal: %v", err)
	}
}

func TestSpeedupsDegradeToNaN(t *testing.T) {
	s := NewSession(tiny)
	names, spec := []string{"fi-panic-stream", "bwaves-98"}, Combo{Name: "none"}.on()
	r, err := s.runPlan(context.Background(), speedupPlan(names, spec))
	if err != nil {
		t.Fatalf("the plan aborted on a degradable fault: %v", err)
	}
	sp := r.speedups(names, spec)[0]
	if !math.IsNaN(sp[0]) {
		t.Errorf("faulty workload speedup = %v, want NaN", sp[0])
	}
	if math.IsNaN(sp[1]) || sp[1] <= 0 {
		t.Errorf("healthy workload speedup = %v", sp[1])
	}
}

// TestGeomeanDegradesToNA: a geomean column is built like every
// registered one (IPCP beside its no-prefetch baseline, one pair per
// trace), over a trace list holding the panicking stream. The geomean
// cell reads n/a and the experiment completes; the other rows stay.
func TestGeomeanDegradesToNA(t *testing.T) {
	n := len(registry)
	lists := [][]string{{"fi-panic-stream", "bwaves-98"}, {"bwaves-98"}}
	register(Experiment{ID: "rob-geomean", Title: "geomean over a faulty trace",
		Plan: func(Scale) []RunSpec {
			var plan []RunSpec
			for _, names := range lists {
				plan = append(plan, speedupPlan(names, ipcpCombo.on())...)
			}
			return plan
		},
		Table: func(_ Scale, r Results) (*Table, error) {
			tab := &Table{ID: "rob-geomean", Title: "geomean probe", Columns: []string{"speedup"}}
			for _, names := range lists {
				tab.AddRow(strings.Join(names, "+"), stats.Geomean(r.speedups(names, ipcpCombo.on())[0]))
			}
			return tab, nil
		}})
	t.Cleanup(func() { registry = registry[:n] })

	rep, err := RunIDs(context.Background(), NewSession(tiny), []string{"rob-geomean"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.Failed(); len(failed) != 0 {
		t.Fatalf("geomean experiment failed on a degradable fault: %v", failed[0].Err)
	}
	tab := rep.Results[0].Table
	if v := tab.Rows[0].Values[0]; !math.IsNaN(v) {
		t.Errorf("geomean over the faulty trace = %v, want NaN", v)
	}
	if v := tab.Rows[1].Values[0]; math.IsNaN(v) || v <= 0 {
		t.Errorf("healthy geomean = %v", v)
	}
	if md := rep.Markdown(); !strings.Contains(md, "| n/a |") || !strings.Contains(md, "n/a: run [fi-panic-stream] failed") {
		t.Errorf("report lacks the n/a cell or its fault note:\n%s", md)
	}
}

func TestCancellationAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing may execute
	s := NewSessionContext(ctx, tiny)
	_, err := s.Run(RunSpec{Workloads: []string{"bwaves-98"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Executed() != 0 {
		t.Errorf("Executed = %d after pre-cancelled context", s.Executed())
	}
	// Cancellation is NOT memoized: a fresh session can run the spec.
	s2 := NewSession(tiny)
	if _, err := s2.Run(RunSpec{Workloads: []string{"bwaves-98"}}); err != nil {
		t.Errorf("fresh session after cancellation: %v", err)
	}
}

// registerTestExperiments adds two tiny experiments and returns a
// cleanup restoring the registry.
func registerTestExperiments(t *testing.T) (idA, idB string) {
	t.Helper()
	n := len(registry)
	probe := func(id, title, w string) Experiment {
		spec := RunSpec{Workloads: []string{w}}
		return Experiment{ID: id, Title: title,
			Plan: func(Scale) []RunSpec { return []RunSpec{spec} },
			Table: func(_ Scale, r Results) (*Table, error) {
				res, err := r.Get(spec)
				if err != nil {
					return nil, err
				}
				tab := &Table{ID: "rob-" + w, Title: "robustness probe " + w, Columns: []string{"ipc"}}
				tab.AddRow(w, res.IPC[0])
				return tab, nil
			}}
	}
	register(probe("rob-a", "probe a", "bwaves-98"))
	register(probe("rob-b", "probe b", "lbm-94"))
	t.Cleanup(func() { registry = registry[:n] })
	return "rob-a", "rob-b"
}

// TestRunIDsFlushesCompletedOnCancel: the experiments run at once, and a
// cancellation keeps every completed table, records each experiment cut
// short with its interruption error, and leaves the results in request
// order. The second experiment is gated on the cancellation, so it is
// the one cut short whatever the scheduler does.
func TestRunIDsFlushesCompletedOnCancel(t *testing.T) {
	idA, _ := registerTestExperiments(t)
	ctx, cancel := context.WithCancel(context.Background())
	n := len(registry)
	register(Experiment{ID: "rob-gated", Title: "gated on the cancellation",
		Plan: func(Scale) []RunSpec {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				panic("never cancelled")
			}
			return []RunSpec{{Workloads: []string{"lbm-94"}}}
		},
		Table: func(Scale, Results) (*Table, error) { return nil, errors.New("rendered an interrupted plan") }})
	t.Cleanup(func() { registry = registry[:n] })

	s := NewSessionContext(ctx, tiny)
	// Cancel as soon as the first experiment finishes.
	rep, err := RunIDs(ctx, s, []string{idA, "rob-gated"}, func(res ExperimentResult, done bool) {
		if done && res.ID == idA {
			cancel()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("report not marked interrupted")
	}
	if len(rep.Results) != 2 || rep.Results[0].ID != idA || rep.Results[1].ID != "rob-gated" {
		t.Fatalf("results = %+v, want both experiments in request order", rep.Results)
	}
	if rep.Results[0].Err != nil || rep.Results[0].Table == nil {
		t.Errorf("completed experiment = %+v, want its table", rep.Results[0])
	}
	if err := rep.Results[1].Err; !Interrupted(err) {
		t.Errorf("gated experiment err = %v, want its interruption", err)
	}
	md := rep.Markdown()
	if !strings.Contains(md, "robustness probe bwaves-98") {
		t.Errorf("completed table missing from flushed report:\n%s", md)
	}
	if !strings.Contains(md, "- rob-gated: context canceled") || !strings.Contains(md, "interrupted") {
		t.Errorf("interrupted experiment or interruption note missing:\n%s", md)
	}
}

// TestFaultNotesBelongToTheExperiment: each experiment's table notes the
// failed runs it asked for — whether it ran them or another experiment
// did — once each and in a stable order.
func TestFaultNotesBelongToTheExperiment(t *testing.T) {
	n := len(registry)
	run := func(id string, workloads ...string) {
		specs := make([]RunSpec, len(workloads))
		for i, w := range workloads {
			specs[i] = RunSpec{Workloads: []string{w}}
		}
		register(Experiment{ID: id, Title: "fault notes " + id,
			Plan: func(Scale) []RunSpec { return specs },
			Table: func(_ Scale, r Results) (*Table, error) {
				tab := &Table{ID: id, Title: "fault notes", Columns: []string{"ipc"}}
				for i, spec := range specs {
					ipc := math.NaN()
					if res, err := r.Get(spec); err == nil {
						ipc = res.IPC[0]
					}
					tab.AddRow(workloads[i], ipc)
				}
				return tab, nil
			}})
	}
	run("rob-notes-a", "fi-panic-stream", "fi-dead-stream", "bwaves-98")
	run("rob-notes-b", "bwaves-98", "fi-panic-stream")
	t.Cleanup(func() { registry = registry[:n] })

	var first string
	for i := 0; i < 20; i++ {
		s := NewSession(tiny)
		rep, err := RunIDs(context.Background(), s, []string{"rob-notes-a", "rob-notes-b"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rep.Results {
			if res.Err != nil {
				t.Fatalf("%s failed: %v", res.ID, res.Err)
			}
		}
		notes := func(r ExperimentResult) (panics, deads int) {
			for _, note := range r.Table.Notes {
				panics += strings.Count(note, "n/a: run [fi-panic-stream] failed")
				deads += strings.Count(note, "n/a: run [fi-dead-stream] failed")
			}
			return panics, deads
		}
		if p, d := notes(rep.Results[0]); p != 1 || d != 1 {
			t.Fatalf("rob-notes-a notes %q, want one note per failed run", rep.Results[0].Table.Notes)
		}
		if p, d := notes(rep.Results[1]); p != 1 || d != 0 {
			t.Fatalf("rob-notes-b notes %q, want the panicking run's note only", rep.Results[1].Table.Notes)
		}
		if got := s.Stats().Faults; got != 2 {
			t.Errorf("session Faults = %d, want each failed simulation once", got)
		}
		md := rep.Markdown()
		if i == 0 {
			first = md
		} else if md != first {
			t.Fatalf("repetition %d rendered differently:\n--- first\n%s\n--- now\n%s", i, first, md)
		}
	}
}

// TestTableReadOutsideThePlanFails: a Table that reads a run its Plan
// never listed fails the experiment with an error naming the run, even
// when the Table degrades the lookup to an n/a cell — no panic, no
// table, and the unlisted run is never simulated.
func TestTableReadOutsideThePlanFails(t *testing.T) {
	n := len(registry)
	planned, unplanned := RunSpec{Workloads: []string{"bwaves-98"}}, RunSpec{Workloads: []string{"lbm-94"}}
	register(Experiment{ID: "rob-unplanned", Title: "reads outside its plan",
		Plan: func(Scale) []RunSpec { return []RunSpec{planned} },
		Table: func(_ Scale, r Results) (*Table, error) {
			tab := &Table{ID: "rob-unplanned", Title: "unplanned probe", Columns: []string{"ipc"}}
			for _, spec := range []RunSpec{planned, unplanned} {
				ipc := math.NaN()
				if res, err := r.Get(spec); err == nil {
					ipc = res.IPC[0]
				}
				tab.AddRow(spec.Workloads[0], ipc)
			}
			return tab, nil
		}})
	t.Cleanup(func() { registry = registry[:n] })

	s := NewSession(tiny)
	rep, err := RunIDs(context.Background(), s, []string{"rob-unplanned"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Err == nil || !strings.Contains(res.Err.Error(), unplanned.Key()) || strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("err = %v, want an error naming the unplanned run %s", res.Err, unplanned.Key())
	}
	if res.Table != nil {
		t.Errorf("a table was rendered from a read outside the plan:\n%s", res.Table.Markdown())
	}
	if got := s.Executed(); got != 1 {
		t.Errorf("Executed = %d, want only the planned run", got)
	}
}

// TestPlanRunsARepeatedSpecOnce: a plan that lists one spec three times
// — fig8's shape, the same baseline under every combo — hands it to the
// session once, so no copy even reaches the memo.
func TestPlanRunsARepeatedSpecOnce(t *testing.T) {
	n := len(registry)
	spec := RunSpec{Workloads: []string{"bwaves-98"}}
	register(Experiment{ID: "rob-repeat", Title: "one spec listed three times",
		Plan: func(Scale) []RunSpec { return []RunSpec{spec, spec, spec} },
		Table: func(_ Scale, r Results) (*Table, error) {
			res, err := r.Get(spec)
			if err != nil {
				return nil, err
			}
			tab := &Table{ID: "rob-repeat", Title: "repeat probe", Columns: []string{"ipc"}}
			tab.AddRow("bwaves-98", res.IPC[0])
			return tab, nil
		}})
	t.Cleanup(func() { registry = registry[:n] })

	s := NewSession(tiny)
	rep, err := RunIDs(context.Background(), s, []string{"rob-repeat"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Results[0].Err; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Executed != 1 || st.Coalesced != 0 || st.MemoHits != 0 {
		t.Errorf("Executed = %d, Coalesced = %d, MemoHits = %d; want the spec run once and no copy reaching the memo",
			st.Executed, st.Coalesced, st.MemoHits)
	}
}

func TestRunIDsIsolatesExperimentFailure(t *testing.T) {
	idA, _ := registerTestExperiments(t)
	n := len(registry)
	register(Experiment{ID: "rob-boom", Title: "panicking experiment",
		Plan: func(Scale) []RunSpec { panic("experiment bug") }})
	t.Cleanup(func() { registry = registry[:n] })

	s := NewSession(tiny)
	rep, err := RunIDs(context.Background(), s, []string{"rob-boom", idA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interrupted {
		t.Error("an experiment panic must not read as interruption")
	}
	if len(rep.Failed()) != 1 || rep.Failed()[0].ID != "rob-boom" {
		t.Fatalf("failed = %+v", rep.Failed())
	}
	if len(rep.Results) != 2 || rep.Results[1].Err != nil {
		t.Fatalf("the healthy experiment after the panic did not complete: %+v", rep.Results)
	}
	if !strings.Contains(rep.Markdown(), "failed experiments") {
		t.Error("failure section missing from the report")
	}
}

func TestDiskCacheResumeByteIdentical(t *testing.T) {
	idA, idB := registerTestExperiments(t)
	dir := t.TempDir()

	s1 := NewSession(tiny)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	rep1, err := RunIDs(context.Background(), s1, []string{idA, idB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Executed() == 0 {
		t.Fatal("first session executed nothing")
	}
	s1.Flush()

	// A second session over the same cache dir resumes: zero executions,
	// byte-identical report.
	s2 := NewSession(tiny)
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	rep2, err := RunIDs(context.Background(), s2, []string{idA, idB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Executed() != 0 {
		t.Errorf("resumed session executed %d runs, want 0", s2.Executed())
	}
	if rep1.Markdown() != rep2.Markdown() {
		t.Errorf("resumed report differs:\n--- first\n%s\n--- resumed\n%s",
			rep1.Markdown(), rep2.Markdown())
	}
}

func TestCorruptCacheEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Workloads: []string{"bwaves-98"}}

	s1 := NewSession(tiny)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	want, err := s1.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s1.Flush()

	// Vandalize every cached entry.
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written (err=%v)", err)
	}
	for _, p := range entries {
		if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := NewSession(tiny)
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Run(spec)
	if err != nil {
		t.Fatalf("corrupt cache entry surfaced as an error: %v", err)
	}
	s2.Flush()
	if s2.Executed() != 1 {
		t.Errorf("Executed = %d, want 1 (silent recompute)", s2.Executed())
	}
	if got.IPC[0] != want.IPC[0] {
		t.Errorf("recomputed IPC %v != original %v", got.IPC, want.IPC)
	}
}

func TestDiskCacheKeyMismatchIsMiss(t *testing.T) {
	// Two specs never share an entry even if a hash collision is forced:
	// load verifies the stored spec key.
	s := NewSession(tiny)
	if err := s.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	k := RunSpec{Workloads: []string{"bwaves-98"}}.Key()
	res, err := s.Run(RunSpec{Workloads: []string{"bwaves-98"}})
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	s.disk.store(s.diskKey(k), "some-other-spec", res)
	if _, ok := s.disk.load(s.diskKey(k), k); ok {
		t.Error("load accepted an entry whose spec key differs")
	}
}
