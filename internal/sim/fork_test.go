package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// forkCfg builds a CacheWarmOnly config for one determinism-matrix spec.
func forkCfg(d detSpec) Config {
	cfg := d.config()
	cfg.CacheWarmOnly = true
	return cfg
}

// coldRun runs one spec end to end on the shared-warmup (CacheWarmOnly)
// path without any snapshotting: warmup, drain, attach, measure in a
// single system.
func coldRun(t *testing.T, d detSpec, warmup, measure uint64) *Result {
	t.Helper()
	sys, err := Build(forkCfg(d), streamsFor(t, d.workloads, d.seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// forkSnapshot runs the warmup once and captures it.
func forkSnapshot(t *testing.T, d detSpec, warmup uint64) *Snapshot {
	t.Helper()
	sys, err := Build(forkCfg(d), streamsFor(t, d.workloads, d.seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunWarmup(context.Background(), warmup); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// forkRun restores a fresh system from snap and runs only the measure
// phase.
func forkRun(t *testing.T, d detSpec, snap *Snapshot, measure uint64) *Result {
	t.Helper()
	sys, err := Build(forkCfg(d), streamsFor(t, d.workloads, d.seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachPrefetchers(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunMeasure(context.Background(), measure)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestForkDeterminismMatchesCold is the warmup-forking golden: a run
// forked from a warmup snapshot must be bit-identical to a cold run of
// the same configuration through the same shared-warmup path — same
// IPC, hit/miss counters, per-class prefetch statistics, stall
// accounting and DRAM counters.
func TestForkDeterminismMatchesCold(t *testing.T) {
	for _, d := range detMatrix {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			const warmup, measure = 2000, 10000
			cold := marshal(t, coldRun(t, d, warmup, measure))
			snap := forkSnapshot(t, d, warmup)
			forked := marshal(t, forkRun(t, d, snap, measure))
			if string(cold) != string(forked) {
				t.Errorf("forked Result diverges from cold run:\ncold:   %s\nforked: %s", cold, forked)
			}
		})
	}
}

// TestForkDeterminismGobRoundTrip proves the disk-spill path is
// lossless: a snapshot encoded with gob, decoded, and restored must
// produce the same measured Result as the in-memory snapshot.
func TestForkDeterminismGobRoundTrip(t *testing.T) {
	d := detMatrix[0]
	const warmup, measure = 2000, 10000
	snap := forkSnapshot(t, d, warmup)
	direct := marshal(t, forkRun(t, d, snap, measure))

	b, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	viaDisk := marshal(t, forkRun(t, d, decoded, measure))
	if string(direct) != string(viaDisk) {
		t.Errorf("gob round-tripped snapshot diverges:\ndirect: %s\nvia:    %s", direct, viaDisk)
	}
}

// TestForkConcurrentSharesNoMutableState forks many systems from one
// snapshot concurrently. Under -race this fails if RestoreSnapshot
// leaks any mutable structure (a map, a slice backing array, an RNG)
// from the shared snapshot into the forked systems; without -race it
// still demands identical results from every fork.
func TestForkConcurrentSharesNoMutableState(t *testing.T) {
	d := detMatrix[0]
	const warmup, measure = 2000, 10000
	snap := forkSnapshot(t, d, warmup)

	const forks = 4
	results := make([]string, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = string(marshal(t, forkRun(t, d, snap, measure)))
		}()
	}
	wg.Wait()
	for i := 1; i < forks; i++ {
		if results[i] != results[0] {
			t.Errorf("fork %d diverges from fork 0:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
}

// TestForkSnapshotSignatureGuard pins the mismatch check: restoring a
// snapshot into a differently configured system must fail loudly.
func TestForkSnapshotSignatureGuard(t *testing.T) {
	d := detMatrix[0]
	snap := forkSnapshot(t, d, 2000)

	other := d
	other.seed = d.seed + 1
	sys, err := Build(forkCfg(other), streamsFor(t, other.workloads, other.seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreSnapshot(snap); err == nil {
		t.Fatal("RestoreSnapshot accepted a snapshot from a different configuration")
	}
}

// TestForkGatedMatchesReference walks the fork path — warmup, drain,
// snapshot, restore into a fresh system, attach prefetchers, measure —
// under the wake-gated scheduler and under the clock-everything
// reference. Every step on that path mutates components behind the
// scheduler's back (the drain's fetch gate, a restore, a prefetcher
// swap); a component left asleep across one of them shows up here as a
// snapshot or a measured result that differs from the reference's.
func TestForkGatedMatchesReference(t *testing.T) {
	for _, d := range []detSpec{detMatrix[0], detMatrix[1], detMatrix[len(detMatrix)-1]} {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			const warmup, measure = 2000, 10000
			build := func(disableFF bool) *System {
				cfg := forkCfg(d)
				cfg.DisableFastForward = disableFF
				sys, err := Build(cfg, streamsFor(t, d.workloads, d.seed))
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			var snaps [2]*Snapshot
			for i, disableFF := range []bool{false, true} {
				sys := build(disableFF)
				if err := sys.RunWarmup(context.Background(), warmup); err != nil {
					t.Fatal(err)
				}
				snap, err := sys.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snaps[i] = snap
			}
			if !reflect.DeepEqual(snaps[0], snaps[1]) {
				t.Fatal("gated warmup+drain snapshot differs from the reference's")
			}
			var out [2]string
			for i, disableFF := range []bool{false, true} {
				sys := build(disableFF)
				if err := sys.RestoreSnapshot(snaps[0]); err != nil {
					t.Fatal(err)
				}
				if err := sys.AttachPrefetchers(); err != nil {
					t.Fatal(err)
				}
				res, err := sys.RunMeasure(context.Background(), measure)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = string(marshal(t, res))
			}
			if out[0] != out[1] {
				t.Errorf("gated forked run diverges from the reference:\ngated: %s\nref:   %s", out[0], out[1])
			}
		})
	}
}
