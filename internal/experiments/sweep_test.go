package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"testing"

	"ipcp/internal/chaos"
	"ipcp/internal/sim"
)

// sweepScale is tiny: sharing correctness, not speed, is under test.
var sweepScale = Scale{Warmup: 2000, Measure: 5000, Seed: 1}

// sweepGrid is a prefetcher sweep over two workloads: six points per
// workload sharing one warmup identity each.
func sweepGrid() []RunSpec {
	var specs []RunSpec
	for _, w := range []string{"mcf-994", "bwaves-98"} {
		for _, l1d := range []string{"", "ipcp", "spp"} {
			for _, l2 := range []string{"", "ipcp"} {
				specs = append(specs, RunSpec{Workloads: []string{w}, L1D: l1d, L2: l2})
			}
		}
	}
	return specs
}

func marshalResult(t *testing.T, res *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunSweepSharesWarmup is the scheduler invariant: a grid of
// 2 workloads × 6 prefetcher points runs exactly 2 warmups, and every
// measure phase forks.
func TestRunSweepSharesWarmup(t *testing.T) {
	s := NewSession(sweepScale)
	specs := sweepGrid()
	results, errs := s.RunSweep(specs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("spec %d (%s): %v", i, specs[i].Key(), err)
		}
		if results[i] == nil {
			t.Fatalf("spec %d: nil result", i)
		}
	}
	st := s.Stats()
	if st.SnapshotMisses != 2 {
		t.Errorf("SnapshotMisses = %d, want 2 (one warmup per workload)", st.SnapshotMisses)
	}
	if st.ForkedRuns != len(specs) {
		t.Errorf("ForkedRuns = %d, want %d", st.ForkedRuns, len(specs))
	}
	if got := st.SnapshotMemHits + st.WarmupsCoalesced; got < len(specs)-2 {
		t.Errorf("mem hits (%d) + coalesced warmups (%d) = %d, want >= %d",
			st.SnapshotMemHits, st.WarmupsCoalesced, got, len(specs)-2)
	}
}

// TestRunSharedMatchesColdSharedRun is the scheduler-level determinism
// golden: a forked result must be bit-identical to a cold run through
// the same CacheWarmOnly phases.
func TestRunSharedMatchesColdSharedRun(t *testing.T) {
	spec := RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", L2: "ipcp"}

	s := NewSession(sweepScale)
	forked, err := s.RunShared(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ForkedRuns != 1 {
		t.Fatalf("ForkedRuns = %d, want 1 (the run did not fork)", st.ForkedRuns)
	}

	sys, err := s.build(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sys.RunContext(context.Background(), sweepScale.Warmup, sweepScale.Measure)
	if err != nil {
		t.Fatal(err)
	}
	if f, c := marshalResult(t, forked), marshalResult(t, cold); f != c {
		t.Errorf("forked result diverges from cold shared run:\nforked: %s\ncold:   %s", f, c)
	}
}

// TestRunSharedMemoNamespace proves shared-warmup results and classic
// results never collide in the memo cache: the same spec through both
// paths yields two executions with different semantics.
func TestRunSharedMemoNamespace(t *testing.T) {
	spec := RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp"}
	s := NewSession(sweepScale)
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunShared(spec); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MemoHits != 0 {
		t.Errorf("MemoHits = %d: shared and classic paths shared a memo entry", st.MemoHits)
	}
	if st.Executed != 2 {
		t.Errorf("Executed = %d, want 2", st.Executed)
	}

	// And a second shared call is a memo hit.
	if _, err := s.RunShared(spec); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MemoHits != 1 {
		t.Errorf("MemoHits = %d after repeat shared run, want 1", st.MemoHits)
	}
}

// TestSweepSnapshotSpillResume points a second session at the first
// session's cache directory and sweeps a NEW prefetcher point: the
// result is not checkpointed, but the warmup snapshot spill is, so the
// new point forks from disk without re-warming.
func TestSweepSnapshotSpillResume(t *testing.T) {
	dir := t.TempDir()
	base := RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp"}

	s1 := NewSession(sweepScale)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	first, err := s1.RunShared(base)
	if err != nil {
		t.Fatal(err)
	}
	s1.Flush()
	if st := s1.Stats(); st.SnapshotMisses != 1 || st.SnapshotBytes == 0 {
		t.Fatalf("first session: misses=%d bytes=%d, want 1 warmup spilled", st.SnapshotMisses, st.SnapshotBytes)
	}

	s2 := NewSession(sweepScale)
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	// Same spec: a disk checkpoint hit, no simulation at all.
	again, err := s2.RunShared(base)
	if err != nil {
		t.Fatal(err)
	}
	if marshalResult(t, again) != marshalResult(t, first) {
		t.Error("disk-checkpointed shared result diverges")
	}
	// New prefetcher point, same warmup identity: forks from the spill.
	novel := base
	novel.L1D = "spp"
	if _, err := s2.RunShared(novel); err != nil {
		t.Fatal(err)
	}
	s2.Flush()
	st := s2.Stats()
	if st.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1 (the repeated spec)", st.DiskHits)
	}
	if st.SnapshotDiskHits != 1 {
		t.Errorf("SnapshotDiskHits = %d, want 1 (the novel spec's warmup)", st.SnapshotDiskHits)
	}
	if st.SnapshotMisses != 0 {
		t.Errorf("SnapshotMisses = %d, want 0 (no warmup should re-run)", st.SnapshotMisses)
	}
	if st.ForkedRuns != 1 {
		t.Errorf("ForkedRuns = %d, want 1", st.ForkedRuns)
	}
}

// TestSweepSpillWithUnreachablePositionRewarms: a spill that decodes but
// whose stream position the spec's own streams refuse to seek to (a loop
// slot past the loop body) is quarantined inside the spill's accept
// callback, and the warmup re-runs instead of forking from it.
func TestSweepSpillWithUnreachablePositionRewarms(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp"}
	s1 := NewSession(sweepScale)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.RunShared(spec); err != nil {
		t.Fatal(err)
	}
	s1.Flush()
	key := s1.snapDiskKey(s1.warmupKey(spec))
	var snap *sim.Snapshot
	if !s1.disk.loadBlob(key, func(p []byte) (err error) { snap, err = sim.DecodeSnapshot(p); return err }) {
		t.Fatal("the warmup was not spilled")
	}
	snap.Cores[0].Stream.Cursor[0] = 1 << 40
	data, err := sim.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	s1.disk.storeBlob(key, data)

	s2 := NewSession(sweepScale)
	s2.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	novel := spec
	novel.L1D = "spp"
	if _, err := s2.RunShared(novel); err != nil {
		t.Fatal(err)
	}
	s2.Flush()
	if st := s2.Stats(); st.Quarantined != 1 || st.SnapshotDiskHits != 0 || st.SnapshotMisses != 1 || st.ForkedRuns != 1 {
		t.Errorf("stats = %+v, want the spill quarantined (1), no snapshot disk hit, one re-run warmup and one fork", st)
	}
}

// TestSweepCancelledWarmupRetries mirrors the memo-cache rule for
// snapshots: a warmup interrupted by one caller's context must not
// poison the entry for callers whose contexts are live.
func TestSweepCancelledWarmupRetries(t *testing.T) {
	s := NewSession(sweepScale)
	spec := RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the leader resolves fatally and unpublishes
	if _, err := s.RunSharedContext(ctx, spec); err == nil {
		t.Fatal("cancelled shared run succeeded")
	}
	if _, err := s.RunShared(spec); err != nil {
		t.Fatalf("live retry after cancelled warmup: %v", err)
	}
}

// TestRunSweepOrderingUnderColdFallback pins RunSweep's result
// placement: entry i always belongs to specs[i], even when some
// points' snapshot path degrades and their cold fallbacks interleave
// with other points' forked measures. Warmups are injected to fail for
// one of the two workloads, so half the grid cold-runs while the other
// half forks — concurrently — and every result must still land at the
// caller's index with values byte-identical to an undegraded sweep
// (forked and cold runs are bit-identical by construction).
func TestRunSweepOrderingUnderColdFallback(t *testing.T) {
	specs := sweepGrid()

	ref := NewSession(sweepScale)
	want, refErrs := ref.RunSweep(specs)
	for i, err := range refErrs {
		if err != nil {
			t.Fatalf("reference spec %d: %v", i, err)
		}
	}

	s := NewSession(sweepScale)
	injected := errors.New("injected warmup degradation")
	s.testWarmupErr = func(spec RunSpec) error {
		if spec.Workloads[0] == "mcf-994" {
			return injected
		}
		return nil
	}
	results, errs := s.RunSweep(specs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("spec %d (%s): %v", i, specs[i].Key(), err)
		}
		if marshalResult(t, results[i]) != marshalResult(t, want[i]) {
			t.Errorf("spec %d (%s): result landed at the wrong index or diverged",
				i, specs[i].Key())
		}
	}

	// The degradation actually happened: only the bwaves half forked,
	// the mcf half cold-ran, and nothing short-circuited via memo hits.
	st := s.Stats()
	if st.ForkedRuns != len(specs)/2 {
		t.Errorf("ForkedRuns = %d, want %d (only the undegraded workload forks)",
			st.ForkedRuns, len(specs)/2)
	}
	if st.Executed != len(specs) {
		t.Errorf("Executed = %d, want %d", st.Executed, len(specs))
	}
}

// TestSnapshotEvictionRefillsWithoutCache covers the FIFO eviction edge
// with no cache directory: once more than snapMemCap warmup identities
// resolve, the oldest snapshot's in-memory copy is dropped and there is
// no disk spill to reload — a later fork of that identity must re-lead
// the warmup (never serve a nil or torn snapshot) and produce a result
// bit-identical to an eviction-free session.
func TestSnapshotEvictionRefillsWithoutCache(t *testing.T) {
	first := RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", Seed: 1}

	s := NewSession(sweepScale)
	if _, err := s.RunShared(first); err != nil {
		t.Fatal(err)
	}
	// Resolve snapMemCap more identities (distinct seeds), evicting the
	// first snapshot from memory.
	for seed := int64(2); seed <= snapMemCap+1; seed++ {
		if _, err := s.RunShared(RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// A NEW prefetcher point on the first identity: its snapshot is
	// evicted and unspilled, so the warmup re-leads.
	novel := first
	novel.L1D = "spp"
	evicted, err := s.RunShared(novel)
	if err != nil {
		t.Fatalf("post-eviction fork: %v", err)
	}
	st := s.Stats()
	if st.SnapshotMisses != snapMemCap+2 {
		t.Errorf("SnapshotMisses = %d, want %d (the evicted identity re-warms)",
			st.SnapshotMisses, snapMemCap+2)
	}

	fresh := NewSession(sweepScale)
	want, err := fresh.RunShared(novel)
	if err != nil {
		t.Fatal(err)
	}
	if marshalResult(t, evicted) != marshalResult(t, want) {
		t.Error("post-eviction result diverges from eviction-free session")
	}
}

// TestSnapshotEvictionRacesLeaders stresses evictSnapshotsLocked
// against concurrent leadWarmup calls: a sweep over 3× snapMemCap
// warmup identities (×2 prefetcher points each) continuously evicts
// while leaders resolve and followers fork. Run under -race, this is
// the torn-snapshot detector; functionally, every point must succeed
// and sampled results must match an eviction-free session.
func TestSnapshotEvictionRacesLeaders(t *testing.T) {
	const identities = 3 * snapMemCap
	var specs []RunSpec
	for seed := int64(1); seed <= identities; seed++ {
		for _, l1d := range []string{"ipcp", "spp"} {
			specs = append(specs, RunSpec{Workloads: []string{"mcf-994"}, L1D: l1d, Seed: seed})
		}
	}
	s := NewSession(sweepScale)
	results, errs := s.RunSweep(specs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("spec %d (%s): %v", i, specs[i].Key(), err)
		}
		if results[i] == nil {
			t.Fatalf("spec %d: nil result", i)
		}
	}
	// Spot-check determinism on the first identity (the most evicted).
	fresh := NewSession(sweepScale)
	want, err := fresh.RunShared(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if marshalResult(t, results[0]) != marshalResult(t, want) {
		t.Error("eviction-stressed result diverges from fresh session")
	}
}

// TestSnapshotEvictionServesSpillWithCache is the cheap-path
// counterpart: with a cache directory attached, an evicted identity
// reloads its disk spill instead of re-warming.
func TestSnapshotEvictionServesSpillWithCache(t *testing.T) {
	s := NewSession(sweepScale)
	if err := s.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	first := RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", Seed: 1}
	if _, err := s.RunShared(first); err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed <= snapMemCap+1; seed++ {
		if _, err := s.RunShared(RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	s.Flush()
	novel := first
	novel.L1D = "spp"
	if _, err := s.RunShared(novel); err != nil {
		t.Fatalf("post-eviction fork: %v", err)
	}
	s.Flush()
	st := s.Stats()
	if st.SnapshotMisses != snapMemCap+1 {
		t.Errorf("SnapshotMisses = %d, want %d (the evicted identity must reload its spill, not re-warm)",
			st.SnapshotMisses, snapMemCap+1)
	}
	if st.SnapshotDiskHits != 1 {
		t.Errorf("SnapshotDiskHits = %d, want 1", st.SnapshotDiskHits)
	}
}

// TestSnapshotNotEvictedBeforeItsSpillLands: the residency cap drops a
// snapshot on the assumption that its spill can be read back, and the
// spill is written behind the warmup. With every write held, one more
// warmup than the cap must evict nothing — a fork of the oldest
// identity is a memory hit, not a re-warm — and once the spills land
// the cap applies again and the same fork reads the disk.
func TestSnapshotNotEvictedBeforeItsSpillLands(t *testing.T) {
	letGo := make(chan struct{})
	in := chaos.New(1)
	in.Add(chaos.Rule{Point: "checkpoint.save", Kind: chaos.KindCrash})
	in.SetCrashFunc(func(string) { <-letGo })
	chaos.Enable(in)
	t.Cleanup(func() { chaos.Enable(nil) })

	s := NewSession(sweepScale)
	if err := s.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= snapMemCap+1; seed++ {
		if _, err := s.RunShared(RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	oldest := RunSpec{Workloads: []string{"mcf-994"}, L1D: "spp", Seed: 1}
	if _, err := s.RunShared(oldest); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SnapshotMisses != snapMemCap+1 || st.SnapshotMemHits != 1 || st.SnapshotDiskHits != 0 {
		t.Fatalf("with every spill held: misses=%d mem=%d disk=%d, want %d/1/0 (an unspilled snapshot must stay resident)",
			st.SnapshotMisses, st.SnapshotMemHits, st.SnapshotDiskHits, snapMemCap+1)
	}
	close(letGo)
	s.Flush()
	oldest.L1D = "bop"
	if _, err := s.RunShared(oldest); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if st := s.Stats(); st.SnapshotMisses != snapMemCap+1 || st.SnapshotDiskHits != 1 {
		t.Fatalf("after the spills landed: misses=%d disk=%d, want %d/1 (the cap evicts again, the spill serves)",
			st.SnapshotMisses, st.SnapshotDiskHits, snapMemCap+1)
	}
}
