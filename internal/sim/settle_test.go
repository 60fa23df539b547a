package sim

import (
	"context"
	"reflect"
	"testing"

	"ipcp/internal/telemetry"
)

// lazyCounters is every counter a skipped component books late — in a
// closed form, when it is next touched — read the way an outside caller
// reads them: through the accessors, with no settle of its own.
type lazyCounters struct {
	Cycle int64
	Cores [][4]uint64 // Cycles, FetchStallCycles, ROBFullCycles, DepBlocked
	DRAM  [2]uint64   // Cycles, BusBusyCycles
	Stall []uint64    // PrefetchMSHRStall: LLC, then each core's L2, L1D, L1I
}

func readLazy(s *System) lazyCounters {
	c := lazyCounters{
		Cycle: s.CurrentCycle(),
		DRAM:  [2]uint64{s.DRAM().Stats.Cycles, s.DRAM().Stats.BusBusyCycles},
		Stall: []uint64{s.LLC().Stats.PrefetchMSHRStall},
	}
	for i := 0; i < s.Cores(); i++ {
		st := s.Core(i).Stats
		c.Cores = append(c.Cores, [4]uint64{st.Cycles, st.FetchStallCycles, st.ROBFullCycles, st.DepBlocked})
		c.Stall = append(c.Stall, s.L2(i).Stats.PrefetchMSHRStall,
			s.L1D(i).Stats.PrefetchMSHRStall, s.L1I(i).Stats.PrefetchMSHRStall)
	}
	return c
}

// TestEveryStatsReaderSettles holds every place the per-cycle counters
// are read to the clock-everything reference, on a 2-core system whose
// pointer-chasing core sits parked on DRAM misses for hundreds of cycles
// at a time — skipped, its cycles unbooked — while the other keeps the
// machine stepping: a mid-run Advance boundary, the warmup reset
// (nothing from before the boundary may be booked after it), the
// interval samples, the end-of-run Result, a Snapshot, and a restore at
// a non-zero cycle with no reset after it — a restored component whose
// accounted-to cycle stayed 0 would book [0, snap.Cycle) as skipped on
// its first settle, and the fork goldens, which reset at the measure
// boundary, would not see it.
func TestEveryStatsReaderSettles(t *testing.T) {
	d := detSpec{name: "pair", seed: 2, l1d: "ipcp", l2: "ipcp", workloads: []string{"lbm-94", "mcf-1536"}}
	// both runs op on the gated system and on the reference and demands
	// the same counters of them afterwards.
	type pair struct{ gated, ref *System }
	both := func(t *testing.T, what string, p pair, op func(*System)) lazyCounters {
		t.Helper()
		op(p.gated)
		op(p.ref)
		got, want := readLazy(p.gated), readLazy(p.ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: gated system reads\n %+v\nreference\n %+v", what, got, want)
		}
		return got
	}
	advance := func(n uint64) func(*System) {
		return func(s *System) {
			if err := s.Advance(n); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("run", func(t *testing.T) {
		p := pair{d.build(t, false), d.build(t, true)}
		both(t, "Advance boundary", p, advance(1500))
		if e := p.gated.engine; e.Visits[KindCore] >= 2*e.SteppedCycles || e.JumpedCycles == 0 {
			t.Fatalf("no core was ever skipped (%d core visits in %d steps, %d cycles jumped): the test proves nothing",
				e.Visits[KindCore], e.SteppedCycles, e.JumpedCycles)
		}

		// The warmup boundary, then more cycles: each core's Cycles is
		// exactly the cycles since the boundary.
		at := both(t, "resetStats", p, (*System).resetStats)
		after := both(t, "Advance after resetStats", p, advance(1500))
		for i, c := range after.Cores {
			if want := uint64(after.Cycle - at.Cycle); c[0] != want {
				t.Errorf("core %d booked %d cycles over the %d since the reset", i, c[0], want)
			}
		}

		// A whole run with interval sampling: samples and Result.
		var logs [2]*telemetry.IntervalLog
		var results [2]*Result
		for i, s := range []*System{p.gated, p.ref} {
			logs[i] = telemetry.NewIntervalLog(500)
			s.SetIntervalLog(logs[i])
			res, err := s.Run(500, 4000)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		if g, r := logs[0].Samples(), logs[1].Samples(); len(g) < 4 || !reflect.DeepEqual(g, r) {
			t.Errorf("interval samples differ (%d gated, %d reference)", len(g), len(r))
		}
		if g, r := marshal(t, results[0]), marshal(t, results[1]); string(g) != string(r) {
			t.Errorf("Result differs:\n gated     %s\n reference %s", g, r)
		}
	})

	t.Run("fork", func(t *testing.T) {
		build := func(disableFF bool) *System {
			cfg := forkCfg(d)
			cfg.DisableFastForward = disableFF
			s, err := Build(cfg, streamsFor(t, d.workloads, d.seed))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		p := pair{build(false), build(true)}
		both(t, "RunWarmup", p, func(s *System) {
			if err := s.RunWarmup(context.Background(), 2000); err != nil {
				t.Fatal(err)
			}
		})
		var snaps [2]*Snapshot
		for i, s := range []*System{p.gated, p.ref} {
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps[i] = snap
		}
		if !reflect.DeepEqual(snaps[0], snaps[1]) {
			t.Fatal("Snapshot of the gated system differs from the reference's")
		}
		snap := snaps[0]
		if snap.Cycle == 0 {
			t.Fatal("snapshot at cycle 0: the restore below proves nothing")
		}

		// Restore into fresh systems and keep going with no reset: every
		// counter continues from the snapshot's.
		f := pair{build(false), build(true)}
		both(t, "RestoreSnapshot", f, func(s *System) {
			if err := s.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		})
		after := both(t, "Advance after RestoreSnapshot", f, advance(1500))
		for i, c := range after.Cores {
			if want := snap.Cores[i].Stats.Cycles + uint64(after.Cycle-snap.Cycle); c[0] != want {
				t.Errorf("core %d reads %d cycles, want the snapshot's %d plus the %d since",
					i, c[0], snap.Cores[i].Stats.Cycles, after.Cycle-snap.Cycle)
			}
		}
		if want := snap.DRAM.Stats.Cycles + uint64(after.Cycle-snap.Cycle); after.DRAM[0] != want {
			t.Errorf("DRAM reads %d cycles, want %d", after.DRAM[0], want)
		}

		// The measured phase with no interval log: nothing but the end of
		// the run settles for the Result.
		var results [2]*Result
		for i, s := range []*System{f.gated, f.ref} {
			if err := s.AttachPrefetchers(); err != nil {
				t.Fatal(err)
			}
			res, err := s.RunMeasure(context.Background(), 4000)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		if g, r := marshal(t, results[0]), marshal(t, results[1]); string(g) != string(r) {
			t.Errorf("Result differs:\n gated     %s\n reference %s", g, r)
		}
	})
}
