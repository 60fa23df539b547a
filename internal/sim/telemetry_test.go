package sim

import (
	"math"
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/telemetry"

	_ "ipcp/internal/core" // register "ipcp"
)

// buildIPCP builds a single-core system with IPCP at L1-D and L2.
func buildIPCP(t *testing.T, wl string) *System {
	t.Helper()
	cfg := PaperConfig(1)
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = PrefetcherSpec{Name: "ipcp"}
	sys, err := Build(cfg, streamsFor(t, []string{wl}, 1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTraceCapturesIPCPLifecycle(t *testing.T) {
	sys := buildIPCP(t, "gcc-2226")
	tr := telemetry.NewTracer(1 << 19)
	sys.SetTracer(tr)
	if _, err := sys.Run(5000, 60000); err != nil {
		t.Fatal(err)
	}

	// The trace spans warmup + measurement, so classification events
	// from the training phase must be present alongside steady-state
	// throttle decisions.
	if n := tr.Count(telemetry.EvClassTransition); n == 0 {
		t.Error("no class-transition events in trace")
	}
	if n := tr.Count(telemetry.EvThrottle); n == 0 {
		t.Error("no throttle events in trace")
	}
	if n := tr.Count(telemetry.EvIssued); n == 0 {
		t.Error("no issued events in trace")
	}
	if n := tr.Count(telemetry.EvPhase); n != 1 {
		t.Errorf("got %d phase markers, want exactly 1", n)
	}

	// Events must be cycle-ordered (single emit site per step), and the
	// phase marker must split training from measurement.
	evs := tr.Events()
	var phaseCycle int64 = -1
	for i, e := range evs {
		if i > 0 && e.Cycle < evs[i-1].Cycle {
			t.Fatalf("event %d out of order: cycle %d after %d",
				i, e.Cycle, evs[i-1].Cycle)
		}
		if e.Kind == telemetry.EvPhase {
			phaseCycle = e.Cycle
		}
	}
	if phaseCycle <= 0 {
		t.Fatal("phase marker missing or at cycle 0")
	}
	trainingTransitions := 0
	for _, e := range evs {
		if e.Kind == telemetry.EvClassTransition && e.Cycle < phaseCycle {
			trainingTransitions++
		}
	}
	if trainingTransitions == 0 {
		t.Error("no class transitions during the training phase")
	}
}

func TestIntervalsAlignWithMeasuredPhase(t *testing.T) {
	sys := buildIPCP(t, "gcc-2226")
	log := telemetry.NewIntervalLog(10_000)
	sys.SetIntervalLog(log)
	res, err := sys.Run(5000, 60000)
	if err != nil {
		t.Fatal(err)
	}
	samples := log.Samples()
	if len(samples) < 2 {
		t.Fatalf("got %d interval samples, want several", len(samples))
	}

	// The timeline must tile the measured phase: contiguous cycle
	// bounds, full-length intervals except the final partial one.
	for i, s := range samples {
		if s.Index != i {
			t.Errorf("sample %d has index %d", i, s.Index)
		}
		if i > 0 && s.StartCycle != samples[i-1].EndCycle {
			t.Errorf("sample %d not contiguous: starts %d, previous ended %d",
				i, s.StartCycle, samples[i-1].EndCycle)
		}
		length := s.EndCycle - s.StartCycle
		if i < len(samples)-1 && length != log.Every {
			t.Errorf("sample %d spans %d cycles, want %d", i, length, log.Every)
		}
		if length <= 0 || length > log.Every {
			t.Errorf("sample %d has bad span %d", i, length)
		}
	}

	// No warmup event may leak into the measured timeline: the
	// per-class issued/fills/useful deltas must sum exactly to the
	// final snapshot totals, which are reset at the warmup boundary.
	snap := res.IPCPL1[0]
	if snap == nil {
		t.Fatal("IPCP L1 snapshot missing from result")
	}
	var issued, fills, useful [memsys.NumClasses]uint64
	var instr uint64
	for _, s := range samples {
		instr += s.Instructions
		for c := range s.Classes {
			issued[c] += s.Classes[c].Issued
			fills[c] += s.Classes[c].Fills
			useful[c] += s.Classes[c].Useful
		}
	}
	for c := range snap.Classes {
		cls := memsys.PrefetchClass(c)
		if issued[c] != snap.Classes[c].Issued {
			t.Errorf("%s: interval issued sum %d != final total %d",
				cls, issued[c], snap.Classes[c].Issued)
		}
		if fills[c] != snap.Classes[c].Fills {
			t.Errorf("%s: interval fills sum %d != final total %d",
				cls, fills[c], snap.Classes[c].Fills)
		}
		if useful[c] != snap.Classes[c].Useful {
			t.Errorf("%s: interval useful sum %d != final total %d",
				cls, useful[c], snap.Classes[c].Useful)
		}
	}
	if snap.TotalIssued() == 0 {
		t.Error("IPCP issued nothing in the measured phase")
	}
	// Retired-instruction deltas likewise cover exactly the measured
	// phase (cores may overshoot the target by < pipeline width).
	if instr < res.Instructions ||
		instr > res.Instructions+uint64(sys.cfg.Core.Width) {
		t.Errorf("interval instructions sum %d outside [%d, %d]",
			instr, res.Instructions, res.Instructions+uint64(sys.cfg.Core.Width))
	}
}

func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	// Attaching a tracer and interval log must only observe: the
	// simulated outcome has to be bit-identical to a bare run.
	bare := func() *Result {
		sys := buildIPCP(t, "mcf-1536")
		res, err := sys.Run(2000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	traced := func() *Result {
		sys := buildIPCP(t, "mcf-1536")
		sys.SetTracer(telemetry.NewTracer(1 << 12))
		sys.SetIntervalLog(telemetry.NewIntervalLog(5000))
		res, err := sys.Run(2000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	if bare.IPC[0] != traced.IPC[0] {
		t.Errorf("tracing changed IPC: %f vs %f", bare.IPC[0], traced.IPC[0])
	}
	if bare.L1D[0] != traced.L1D[0] {
		t.Error("tracing changed L1D statistics")
	}
	if bare.DRAM != traced.DRAM {
		t.Error("tracing changed DRAM statistics")
	}
}

func TestMPKILevels(t *testing.T) {
	sys := buildIPCP(t, "gcc-2226")
	res, err := sys.Run(2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"L1D", "L1I", "L2", "LLC"} {
		m := res.MPKI(level, 0)
		if math.IsNaN(m) || m < 0 {
			t.Errorf("MPKI(%q) = %f, want a finite non-negative value", level, m)
		}
	}
	// Unknown levels must be loud (NaN propagates into any downstream
	// arithmetic), not a silent zero that biases averages.
	if m := res.MPKI("L3", 0); !math.IsNaN(m) {
		t.Errorf("MPKI of unknown level = %f, want NaN", m)
	}
}

// TestIntervalDeltasSumAcrossZeroRetire is the interval-timeline
// accounting regression test: on a workload that stalls long enough to
// produce intervals with zero retired instructions, every counter
// column of the timeline — instructions, raw demand misses, DRAM
// bytes, per-class prefetch counters — must still sum exactly to the
// end-of-run totals. (Before the raw-miss columns existed, a
// zero-retire interval's misses surfaced only through the
// instruction-gated MPKI fields and vanished from the timeline while
// the delta baseline advanced past them.)
func TestIntervalDeltasSumAcrossZeroRetire(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.Seed = 4
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = PrefetcherSpec{Name: "ipcp"}
	sys, err := Build(cfg, streamsFor(t, []string{"mcf-1536"}, 4))
	if err != nil {
		t.Fatal(err)
	}
	ilog := telemetry.NewIntervalLog(50)
	sys.SetIntervalLog(ilog)
	res, err := sys.Run(2000, 10000)
	if err != nil {
		t.Fatal(err)
	}

	samples := ilog.Samples()
	if len(samples) == 0 {
		t.Fatal("no interval samples recorded")
	}
	zeroRetire := 0
	var sumInstr, sumL1D, sumL2, sumLLC, sumBytes uint64
	var sumIssued, sumFills, sumUseful uint64
	for _, sm := range samples {
		if sm.Instructions == 0 {
			zeroRetire++
		}
		sumInstr += sm.Instructions
		sumL1D += sm.L1DMisses
		sumL2 += sm.L2Misses
		sumLLC += sm.LLCMisses
		sumBytes += sm.DRAMBytes
		for cls := range sm.Classes {
			sumIssued += sm.Classes[cls].Issued
			sumFills += sm.Classes[cls].Fills
			sumUseful += sm.Classes[cls].Useful
		}
	}
	if zeroRetire == 0 {
		t.Fatal("no zero-retire interval occurred; shrink the interval length so the test forces the regression scenario")
	}

	var totInstr, totL1D, totL2 uint64
	for i := 0; i < res.Cores; i++ {
		totInstr += res.CoreStats[i].Retired
		totL1D += res.L1D[i].DemandMisses()
		totL2 += res.L2[i].DemandMisses()
	}
	if sumInstr != totInstr {
		t.Errorf("interval instructions sum %d != end-of-run total %d", sumInstr, totInstr)
	}
	if sumL1D != totL1D {
		t.Errorf("interval L1D miss sum %d != end-of-run total %d", sumL1D, totL1D)
	}
	if sumL2 != totL2 {
		t.Errorf("interval L2 miss sum %d != end-of-run total %d", sumL2, totL2)
	}
	if tot := res.LLC.DemandMisses(); sumLLC != tot {
		t.Errorf("interval LLC miss sum %d != end-of-run total %d", sumLLC, tot)
	}
	if tot := res.DRAM.BytesTransferred(); sumBytes != tot {
		t.Errorf("interval DRAM byte sum %d != end-of-run total %d", sumBytes, tot)
	}
	var totIssued, totFills, totUseful uint64
	for _, snap := range res.IPCPL1 {
		if snap == nil {
			t.Fatal("expected an introspectable L1D prefetcher")
		}
		for cls := range snap.Classes {
			totIssued += snap.Classes[cls].Issued
			totFills += snap.Classes[cls].Fills
			totUseful += snap.Classes[cls].Useful
		}
	}
	if sumIssued != totIssued || sumFills != totFills || sumUseful != totUseful {
		t.Errorf("per-class interval sums (%d/%d/%d issued/fills/useful) != totals (%d/%d/%d)",
			sumIssued, sumFills, sumUseful, totIssued, totFills, totUseful)
	}
}

// TestApplyClassStateAggregates pins the multi-core degree/accuracy
// aggregation: the reported end-of-interval state is the mean across
// introspectable cores (rounded to nearest for the integer degree),
// and exactly the single core's state when there is only one.
func TestApplyClassStateAggregates(t *testing.T) {
	var a, b telemetry.Snapshot
	a.Classes[1].Degree, a.Classes[1].Accuracy = 2, 0.5
	b.Classes[1].Degree, b.Classes[1].Accuracy = 3, 0.7

	var sm telemetry.Sample
	applyClassState(&sm, []telemetry.Snapshot{a, b})
	if got := sm.Classes[1].Degree; got != 3 { // mean 2.5 rounds to 3
		t.Errorf("aggregated degree = %d, want 3", got)
	}
	if got := sm.Classes[1].Accuracy; got < 0.5999 || got > 0.6001 {
		t.Errorf("aggregated accuracy = %v, want 0.6", got)
	}

	var single telemetry.Sample
	applyClassState(&single, []telemetry.Snapshot{a})
	if single.Classes[1].Degree != 2 || single.Classes[1].Accuracy != 0.5 {
		t.Errorf("single-core aggregation altered the values: %+v", single.Classes[1])
	}

	var untouched telemetry.Sample
	untouched.Classes[1].Degree = 7
	applyClassState(&untouched, nil)
	if untouched.Classes[1].Degree != 7 {
		t.Error("aggregation with no snapshots should leave the sample untouched")
	}
}
