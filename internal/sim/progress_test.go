package sim

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp/internal/telemetry"
	"ipcp/internal/trace"
)

// progressSystem builds a small single-core system for the observability
// tests.
func progressSystem(t *testing.T) *System {
	t.Helper()
	cfg := PaperConfig(1)
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = PrefetcherSpec{Name: "ipcp"}
	sys, err := Build(cfg, []trace.Stream{strideStream()})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// strideStream is an endless strided load loop.
func strideStream() trace.Stream {
	return &trace.SliceStream{
		Instrs: []trace.Instr{
			{IP: 0x400000, Loads: [trace.MaxLoads]uint64{0x100000}},
			{IP: 0x400004, Loads: [trace.MaxLoads]uint64{0x100040}},
			{IP: 0x400008, Loads: [trace.MaxLoads]uint64{0x100080}},
			{IP: 0x40000c},
		},
		Loop: true,
	}
}

// TestProgressHookReportsPhases drives a run with a progress sink and
// checks the reports walk warmup → measure with monotonic retirement
// and honest targets.
func TestProgressHookReportsPhases(t *testing.T) {
	sys := progressSystem(t)
	var mu sync.Mutex
	var got []telemetry.Progress
	ctx := telemetry.ContextWithProgress(context.Background(), func(p telemetry.Progress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	const warmup, measure = 20_000, 60_000
	if _, err := sys.RunContext(ctx, warmup, measure); err != nil {
		t.Fatal(err)
	}
	if len(got) < 4 {
		t.Fatalf("only %d progress reports for a %d-instruction run", len(got), warmup+measure)
	}
	seenMeasure := false
	var lastCycle int64 = -1
	for i, p := range got {
		switch p.Phase {
		case "warmup":
			if seenMeasure {
				t.Fatalf("report %d: warmup after measure", i)
			}
			if p.Target != warmup {
				t.Errorf("report %d: warmup target = %d, want %d", i, p.Target, warmup)
			}
		case "measure":
			seenMeasure = true
			if p.Target != measure {
				t.Errorf("report %d: measure target = %d, want %d", i, p.Target, measure)
			}
		default:
			t.Fatalf("report %d: unknown phase %q", i, p.Phase)
		}
		if p.Cycle < lastCycle {
			t.Errorf("report %d: cycle went backwards (%d < %d)", i, p.Cycle, lastCycle)
		}
		lastCycle = p.Cycle
		if p.Retired > p.Target {
			// Retirement may overshoot slightly within a step, but never
			// past target plus one step's worth.
			if p.Retired > p.Target+8 {
				t.Errorf("report %d: retired %d far past target %d", i, p.Retired, p.Target)
			}
		}
	}
	if !seenMeasure {
		t.Fatal("no measure-phase reports")
	}
	final := got[len(got)-1]
	if final.Phase != "measure" || final.Retired < measure {
		t.Errorf("final report = %+v, want completed measure phase", final)
	}
}

// TestPhaseSpansEmitted runs with a span tracer in the context and
// expects one sim.warmup and one sim.measure span, in order.
func TestPhaseSpansEmitted(t *testing.T) {
	sys := progressSystem(t)
	tr := telemetry.NewSpanTracer(64)
	ctx := telemetry.ContextWithSpanTracer(context.Background(), tr)
	ctx = telemetry.ContextWithJobID(ctx, "j-test")
	if _, err := sys.RunContext(ctx, 10_000, 30_000); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
		if s.JobID != "j-test" {
			t.Errorf("span %s job id = %q", s.Name, s.JobID)
		}
		if s.Dur <= 0 {
			t.Errorf("span %s has no duration", s.Name)
		}
	}
	if len(names) != 2 || names[0] != "sim.warmup" || names[1] != "sim.measure" {
		t.Fatalf("spans = %v, want [sim.warmup sim.measure]", names)
	}
}

// TestCancelledRunClosesPhaseSpan cancels mid-warmup and expects the
// open phase span to be published with an error attribute instead of
// leaking unended.
func TestCancelledRunClosesPhaseSpan(t *testing.T) {
	sys := progressSystem(t)
	tr := telemetry.NewSpanTracer(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx = telemetry.ContextWithSpanTracer(ctx, tr)
	if _, err := sys.RunContext(ctx, 1_000_000, 1_000_000); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != "sim.warmup" {
		t.Fatalf("spans after cancellation = %+v, want the open warmup span", spans)
	}
	hasErr := false
	for _, a := range spans[0].Attrs {
		if a.Key == "error" {
			hasErr = true
		}
	}
	if !hasErr {
		t.Errorf("cancelled phase span carries no error attr: %+v", spans[0])
	}
}

// TestCancelMidRun cancels a 4-core run at arbitrary points mid-run (a
// delay ladder) and, deterministically, from the first measure-phase
// progress report: the run must either finish cleanly or return the
// cancellation error, and a cancel that lands mid-measure must close
// the partial interval at the cancellation cycle.
func TestCancelMidRun(t *testing.T) {
	d := detSpec{seed: 3, l1d: "ipcp", l2: "ipcp",
		workloads: []string{"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387"}}
	for _, delay := range []time.Duration{
		0, 50 * time.Microsecond, 200 * time.Microsecond,
		1 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
	} {
		sys := d.build(t, false)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(delay, cancel)
		_, err := sys.RunContext(ctx, 5000, 50000)
		cancel()
		if err != nil && !strings.Contains(err.Error(), "cancelled") {
			t.Fatalf("delay %v: unexpected error: %v", delay, err)
		}
	}

	sys := d.build(t, false)
	// One interval longer than the run: the only sample there can be is
	// the partial interval the cancellation path closes.
	ilog := telemetry.NewIntervalLog(1 << 40)
	sys.SetIntervalLog(ilog)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = telemetry.ContextWithProgress(ctx, func(p telemetry.Progress) {
		if p.Phase == "measure" {
			cancel()
		}
	})
	_, err := sys.RunContext(ctx, 5000, 50000)
	if err == nil || !strings.Contains(err.Error(), "measurement cancelled") {
		t.Fatalf("cancel from the measure phase: err = %v, want a measurement cancellation", err)
	}
	if samples := ilog.Samples(); len(samples) != 1 || samples[0].EndCycle != sys.cycle {
		t.Fatalf("samples after a mid-measure cancel = %+v, want one partial interval ending at cycle %d",
			samples, sys.cycle)
	}
}
