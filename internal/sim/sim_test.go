package sim

import (
	"testing"

	"ipcp/internal/cpu"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

func streamsFor(t *testing.T, names []string, seed int64) []trace.Stream {
	t.Helper()
	out := make([]trace.Stream, len(names))
	for i, n := range names {
		s, err := workload.Named(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s.New(seed)
	}
	return out
}

func TestSingleCoreRun(t *testing.T) {
	cfg := PaperConfig(1)
	sys, err := Build(cfg, streamsFor(t, []string{"bwaves-2931"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC[0] <= 0 || res.IPC[0] > float64(cfg.Core.Width) {
		t.Errorf("IPC out of range: %f", res.IPC[0])
	}
	if res.L1D[0].DemandAccesses() == 0 {
		t.Error("no demand accesses at L1D")
	}
	if res.L1D[0].DemandMisses() == 0 {
		t.Error("streaming workload produced no L1D misses without prefetching")
	}
	if res.DRAM.Reads == 0 {
		t.Error("no DRAM reads")
	}
	// Hierarchy sanity: L2 demand accesses cannot exceed L1 misses
	// plus L1I misses (everything at L2 was missed above).
	l1miss := res.L1D[0].DemandMisses() + res.L1I[0].DemandMisses()
	if res.L2[0].DemandAccesses() > l1miss+10 {
		t.Errorf("L2 demand accesses (%d) exceed upper-level misses (%d)",
			res.L2[0].DemandAccesses(), l1miss)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() *Result {
		cfg := PaperConfig(1)
		sys, err := Build(cfg, streamsFor(t, []string{"mcf-1536"}, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(1000, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.IPC[0] != b.IPC[0] {
		t.Errorf("IPC not deterministic: %f vs %f", a.IPC[0], b.IPC[0])
	}
	if a.L1D[0] != b.L1D[0] {
		t.Errorf("L1D stats not deterministic")
	}
	if a.DRAM != b.DRAM {
		t.Errorf("DRAM stats not deterministic")
	}
}

func TestComputeBoundHasHighIPCAndLowMPKI(t *testing.T) {
	sys, err := Build(PaperConfig(1), streamsFor(t, []string{"exchange2-387"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Warm long enough to fault in the small hot footprint (one full
	// sweep of the 96KB word-walk takes ~200k instructions); the
	// measured region must then be nearly miss-free.
	res, err := sys.Run(250000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if mpki := res.MPKI("LLC", 0); mpki > 1.0 {
		t.Errorf("compute-bound LLC MPKI = %.2f, want < 1", mpki)
	}
	if res.IPC[0] < 1.0 {
		t.Errorf("compute-bound IPC = %.2f, want > 1", res.IPC[0])
	}
}

func TestMemoryIntensiveHasHighMPKI(t *testing.T) {
	sys, err := Build(PaperConfig(1), streamsFor(t, []string{"mcf-994"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if mpki := res.MPKI("LLC", 0); mpki < 1.0 {
		t.Errorf("mcf-like LLC MPKI = %.2f, want >= 1", mpki)
	}
}

func TestMultiCoreRun(t *testing.T) {
	cfg := PaperConfig(2)
	sys, err := Build(cfg, streamsFor(t, []string{"lbm-94", "omnetpp-17"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(1000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 2 {
		t.Fatalf("IPC entries = %d", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 {
			t.Errorf("core %d IPC = %f", i, ipc)
		}
	}
	if res.LLC.DemandAccesses() == 0 {
		t.Error("shared LLC saw no traffic")
	}
}

func TestSharedLLCContention(t *testing.T) {
	// A core co-running with a memory hog must be slower than the
	// same core alone (shared LLC + DRAM contention).
	alone, err := Build(PaperConfig(2), streamsFor(t, []string{"lbm-94", "exchange2-387"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := alone.Run(1000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	contended, err := Build(PaperConfig(2), streamsFor(t, []string{"lbm-94", "lbm-1004"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := contended.Run(1000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if rc.IPC[0] >= ra.IPC[0] {
		t.Errorf("no contention effect: with hog %.3f, with light partner %.3f",
			rc.IPC[0], ra.IPC[0])
	}
}

func TestPrefetcherSpecByName(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "definitely-not-registered"}
	_, err := Build(cfg, streamsFor(t, []string{"bwaves-98"}, 1))
	if err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

// TestMaxCyclesGuard trips the run's deadlock guard — the cycle budget
// derived from the instruction budget — on a system that can never
// retire (an empty trace), in each phase: the error names the phase and
// the budget, and a stuck measurement says how many cores finished.
func TestMaxCyclesGuard(t *testing.T) {
	for _, c := range []struct {
		warmup, measure uint64
		want            string
	}{
		{1000, 1000, "sim: warmup exceeded 2000000 cycles"},
		{0, 1000, "sim: measurement exceeded 1500000 cycles (0/1 cores finished)"},
	} {
		sys, err := Build(PaperConfig(1), []trace.Stream{&trace.SliceStream{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(c.warmup, c.measure); err == nil || err.Error() != c.want {
			t.Errorf("Run(%d, %d) on a system that cannot retire: got %v, want %q", c.warmup, c.measure, err, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.Cores = 0
	if _, err := Build(cfg, nil); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = PaperConfig(1)
	if _, err := Build(cfg, nil); err == nil {
		t.Error("stream count mismatch accepted")
	}
	cfg = PaperConfig(3) // 3*2048 sets is not a power of two
	if _, err := Build(cfg, streamsFor(t, []string{"bwaves-98", "bwaves-98", "bwaves-98"}, 1)); err == nil {
		t.Error("non-power-of-two LLC accepted")
	}
}

func TestPaperConfigMatchesTableII(t *testing.T) {
	cfg := PaperConfig(1)
	if got := cfg.L1D.SizeBytes(); got != 48*1024 {
		t.Errorf("L1D size = %d, want 48KB", got)
	}
	if got := cfg.L1I.SizeBytes(); got != 32*1024 {
		t.Errorf("L1I size = %d, want 32KB", got)
	}
	if got := cfg.L2.SizeBytes(); got != 512*1024 {
		t.Errorf("L2 size = %d, want 512KB", got)
	}
	if got := cfg.LLC.SizeBytes(); got != 2*1024*1024 {
		t.Errorf("LLC size = %d, want 2MB/core", got)
	}
	if cfg.L1D.PQSize != 8 || cfg.L1D.MSHRs != 16 {
		t.Error("L1D PQ/MSHR do not match Table II")
	}
	if cfg.L2.PQSize != 16 || cfg.L2.MSHRs != 32 {
		t.Error("L2 PQ/MSHR do not match Table II")
	}
	if cfg.Core.ROBSize != 256 || cfg.Core.Width != 4 {
		t.Error("core does not match Table II")
	}
	if PaperConfig(4).DRAM.Channels != 2 {
		t.Error("multi-core DRAM must have 2 channels")
	}
}

// TestWatchFinishedSentinel pins the retire watch's explicit finished
// flag: a core whose finish cycle is recorded as 0 (legitimate — a
// forked system restores mid-timeline, and a late finish lands at
// whatever cycle the loop is at) must not be re-counted on later
// passes, which a `finish[i] == 0` encoding could not guarantee. A
// phase that is not late counts a core already at its target as
// finished at entry.
func TestWatchFinishedSentinel(t *testing.T) {
	s := &System{cores: []*cpu.Core{{}, {}}, finish: make([]int64, 2), finished: make([]bool, 2)}
	s.cores[0].Stats.Retired = 10

	s.watch(10, false)
	if !s.finished[0] || s.finished[1] || s.unfinished != 1 || s.late {
		t.Fatalf("watch: finished=%v unfinished=%d late=%v, want core 0 finished at entry", s.finished, s.unfinished, s.late)
	}

	s.watch(10, true)
	if s.finished[0] || s.unfinished != 2 || !s.late {
		t.Fatalf("late watch: finished=%v unfinished=%d late=%v, want core 0 deferred", s.finished, s.unfinished, s.late)
	}
	s.finishLate()
	if !s.finished[0] || s.finish[0] != 0 || s.unfinished != 1 {
		t.Fatalf("core 0 should be finished at cycle 0: finished=%v finish=%d", s.finished[0], s.finish[0])
	}
	// Core 0's recorded cycle is 0 — the exact value a sentinel would
	// use for "not yet finished". It must not be counted again.
	s.cycle = 7
	s.finishLate()
	if s.unfinished != 1 || s.finish[0] != 0 {
		t.Fatalf("a second pass re-counted core 0: unfinished=%d finish=%d", s.unfinished, s.finish[0])
	}

	s.cores[1].Stats.Retired = 12
	s.cycle = 9
	s.finishLate()
	if s.finish[1] != 9 || !s.finished[1] || s.unfinished != 0 {
		t.Fatalf("core 1 finish not recorded: finished=%v finish=%d", s.finished[1], s.finish[1])
	}
}
