package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// The concurrency suite pins the session's behavior under concurrent
// identical and concurrent distinct traffic — exactly what the serve
// layer generates: duplicate specs must coalesce onto one simulation,
// the NumCPU admission cap must hold on every entry point, and an
// experiment interrupted mid-flight must still appear in its report.

// concGate instruments workload-stream construction, which happens
// inside Session.execute while the admission slot is held: entered
// counts constructions, max the peak concurrency, and release (when
// non-nil) blocks construction so the test can observe the peak.
type concGate struct {
	mu      sync.Mutex
	active  int
	max     int
	entered int
	release chan struct{}
}

func (g *concGate) enter() {
	g.mu.Lock()
	g.active++
	g.entered++
	if g.active > g.max {
		g.max = g.active
	}
	ch := g.release
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
	// Decrement before the simulation proper runs: the admission slot is
	// still held, so a later stream construction can only begin after an
	// earlier run fully finished — max never under-counts the cap.
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
}

func (g *concGate) stats() (entered, max int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.entered, g.max
}

// currentGate is swapped per test; the workload below is registered
// once for the whole binary.
var (
	currentGateMu sync.Mutex
	currentGate   *concGate
)

func setGate(t *testing.T, g *concGate) {
	t.Helper()
	currentGateMu.Lock()
	currentGate = g
	currentGateMu.Unlock()
	t.Cleanup(func() {
		currentGateMu.Lock()
		currentGate = nil
		currentGateMu.Unlock()
	})
}

func init() {
	workload.Register(workload.Spec{
		Name: "conc-gate", Suite: "test",
		NewStream: func(seed int64) trace.Stream {
			currentGateMu.Lock()
			g := currentGate
			currentGateMu.Unlock()
			if g != nil {
				g.enter()
			}
			return &trace.SliceStream{
				Instrs: []trace.Instr{{IP: 0x400000, Loads: [trace.MaxLoads]uint64{0x10000}}},
				Loop:   true,
			}
		},
	})
}

func TestConcurrentDuplicateRunsCoalesce(t *testing.T) {
	s := NewSession(tiny)
	const n = 8
	spec := RunSpec{Workloads: []string{"bwaves-98"}, Seed: 7001}

	var wg sync.WaitGroup
	got := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Run(spec)
			errs[i] = err
			if res != nil {
				got[i] = res.IPC[0]
			}
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if s.Executed() != 1 {
		t.Fatalf("Executed = %d, want 1: concurrent duplicate specs must coalesce onto one simulation", s.Executed())
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d saw IPC %v, caller 0 saw %v", i, got[i], got[0])
		}
	}
	if st := s.Stats(); st.Coalesced+st.MemoHits != n-1 {
		t.Errorf("Stats = %+v, want the %d non-leading callers coalesced or memo-served", st, n-1)
	}
}

func TestConcurrentDuplicateErrorsCoalesce(t *testing.T) {
	// A failing spec is also single-flight: one execution, every caller
	// reporting the same memoized fault.
	s := NewSession(tiny)
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Run(RunSpec{Workloads: []string{"fi-panic-stream"}, Seed: 7002})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: err = %v, want the shared PanicError", i, err)
		}
	}
	if s.Executed() != 1 {
		t.Errorf("Executed = %d, want 1", s.Executed())
	}
	if got := s.Stats().Faults; got != 1 {
		t.Errorf("Faults = %d, want exactly one recorded fault", got)
	}
}

func TestDirectRunHonorsAdmissionCap(t *testing.T) {
	const cap, jobs = 2, 6
	s := NewSession(tiny)
	s.sem = make(chan struct{}, cap) // shrink the NumCPU cap for observability
	g := &concGate{release: make(chan struct{})}
	setGate(t, g)

	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct keys: no coalescing, every call must simulate —
			// and still respect the cap despite bypassing RunAllPartial.
			_, errs[i] = s.Run(RunSpec{
				Workloads: []string{"conc-gate"},
				Seed:      int64(i + 1),
			})
		}(i)
	}

	// Wait until the cap is saturated, then give any over-admitted run a
	// chance to show up before releasing the gate.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if entered, _ := g.stats(); entered >= cap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission stalled: cap never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if entered, max := g.stats(); entered > cap || max > cap {
		close(g.release)
		wg.Wait()
		t.Fatalf("admission bypass: %d runs entered execution (peak %d) with a cap of %d", entered, max, cap)
	}
	close(g.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	entered, max := g.stats()
	if entered != jobs {
		t.Errorf("entered = %d, want all %d distinct runs executed", entered, jobs)
	}
	if max > cap {
		t.Errorf("peak concurrency %d exceeded the cap %d", max, cap)
	}
	if s.Executed() != jobs {
		t.Errorf("Executed = %d, want %d", s.Executed(), jobs)
	}
}

func TestRunContextDeadlineDoesNotPoisonSession(t *testing.T) {
	// A per-call deadline (the serve layer's per-job timeout) aborts
	// that call fatally — and must NOT be memoized: the next caller with
	// a live context runs the spec for real.
	s := NewSession(tiny)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := RunSpec{Workloads: []string{"bwaves-98"}, Seed: 7003}
	if _, err := s.RunContext(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Executed() != 0 {
		t.Fatalf("Executed = %d after a dead per-call context", s.Executed())
	}
	if _, err := s.RunContext(context.Background(), spec); err != nil {
		t.Fatalf("retry with a live context: %v", err)
	}
	if s.Executed() != 1 {
		t.Errorf("Executed = %d, want 1", s.Executed())
	}
}

func TestRunIDsRecordsInterruptedExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSessionContext(ctx, tiny)
	n := len(registry)
	register(Experiment{ID: "rob-interrupt", Title: "interrupted mid-flight",
		Plan: func(Scale) []RunSpec {
			cancel() // the SIGINT arrives while this experiment is running
			return []RunSpec{{Workloads: []string{"bwaves-98"}, Seed: 7004}}
		},
		Table: func(Scale, Results) (*Table, error) { return nil, errors.New("rendered an interrupted plan") }})
	t.Cleanup(func() { registry = registry[:n] })

	rep, err := RunIDs(ctx, s, []string{"rob-interrupt"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("report not marked interrupted")
	}
	if len(rep.Results) != 1 || rep.Results[0].ID != "rob-interrupt" || rep.Results[0].Err == nil {
		t.Fatalf("results = %+v, want the interrupted experiment recorded with its error", rep.Results)
	}
	if failed := rep.Failed(); len(failed) != 1 || failed[0].ID != "rob-interrupt" {
		t.Fatalf("Failed() = %+v, want the interrupted experiment", failed)
	}
	md := rep.Markdown()
	if !strings.Contains(md, "rob-interrupt") {
		t.Errorf("interrupted experiment missing from the rendered report:\n%s", md)
	}
	if !strings.Contains(md, "interrupted") {
		t.Errorf("interruption note missing:\n%s", md)
	}
}

// TestRunIDsOverlapsExperiments: RunIDs starts every requested
// experiment at once. Each of the two waits, bounded, for the other to
// have started, which only experiments running concurrently can satisfy.
func TestRunIDsOverlapsExperiments(t *testing.T) {
	n := len(registry)
	started := map[string]chan struct{}{"rob-left": make(chan struct{}), "rob-right": make(chan struct{})}
	for id, other := range map[string]string{"rob-left": "rob-right", "rob-right": "rob-left"} {
		register(Experiment{ID: id, Title: "waits for " + other,
			Plan: func(Scale) []RunSpec {
				close(started[id])
				select {
				case <-started[other]:
				case <-time.After(10 * time.Second):
					panic(other + " never started")
				}
				return nil
			},
			Table: func(Scale, Results) (*Table, error) { return &Table{ID: id, Title: "overlap probe"}, nil }})
	}
	t.Cleanup(func() { registry = registry[:n] })

	rep, err := RunIDs(context.Background(), NewSession(tiny), []string{"rob-left", "rob-right"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.Failed(); len(failed) != 0 {
		t.Fatalf("experiments ran one after another: %s: %v", failed[0].ID, failed[0].Err)
	}
}

// TestRunIDsProgressNeverOverlaps: progress is called once per
// experiment before any starts and once as each finishes, and never
// from two goroutines at once, however many experiments finish together.
func TestRunIDsProgressNeverOverlaps(t *testing.T) {
	n := len(registry)
	var ids []string
	for i := 0; i < 8; i++ {
		id := "rob-progress-" + string(rune('a'+i))
		ids = append(ids, id)
		register(Experiment{ID: id, Title: "finishes at once",
			Plan:  func(Scale) []RunSpec { return nil },
			Table: func(Scale, Results) (*Table, error) { return &Table{ID: id, Title: "progress probe"}, nil }})
	}
	t.Cleanup(func() { registry = registry[:n] })

	var (
		inside, overlaps atomic.Int32
		calls            []string // appended inside the callback, unlocked: -race checks the claim too
	)
	rep, err := RunIDs(context.Background(), NewSession(tiny), ids, func(res ExperimentResult, done bool) {
		if inside.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(time.Millisecond)
		calls = append(calls, fmt.Sprintf("%s %v", res.ID, done))
		inside.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := overlaps.Load(); got != 0 {
		t.Errorf("%d progress calls overlapped another", got)
	}
	if len(calls) != 2*len(ids) {
		t.Fatalf("progress calls = %v, want one start and one finish per experiment", calls)
	}
	for i, id := range ids {
		if want := id + " false"; calls[i] != want {
			t.Errorf("call %d = %q, want %q: every start comes first, in request order", i, calls[i], want)
		}
		if !slices.Contains(calls[len(ids):], id+" true") {
			t.Errorf("no finish call for %s in %v", id, calls)
		}
		if rep.Results[i].ID != id {
			t.Errorf("result %d = %s, want %s (request order)", i, rep.Results[i].ID, id)
		}
	}
}
