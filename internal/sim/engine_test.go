package sim

import (
	"context"
	"strings"
	"testing"

	"ipcp/internal/trace"
)

// TestVisitOrderAsserted pins the Build-time check the wake-lowering
// rules rest on: the shipped order passes, and an order that visits a
// component before something it pushes to is refused.
func TestVisitOrderAsserted(t *testing.T) {
	sys, err := Build(PaperConfig(2), streamsFor(t, []string{"lbm-94", "mcf-1536"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindDRAM, KindLLC, KindL2, KindL1D, KindL1I, KindCore, KindL2, KindL1D, KindL1I, KindCore}
	if len(sys.slots) != len(want) {
		t.Fatalf("%d slots, want %d", len(sys.slots), len(want))
	}
	for i, k := range want {
		if sys.slots[i].kind != k {
			t.Errorf("slot %d is %v, want %v", i, sys.slots[i].kind, k)
		}
	}
	for _, swap := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}} {
		sys.slots[swap[0]], sys.slots[swap[1]] = sys.slots[swap[1]], sys.slots[swap[0]]
		if err := sys.checkVisitOrder(); err == nil {
			t.Errorf("order with slots %d and %d swapped was accepted", swap[0], swap[1])
		}
		sys.slots[swap[0]], sys.slots[swap[1]] = sys.slots[swap[1]], sys.slots[swap[0]]
	}
	if err := sys.checkVisitOrder(); err != nil {
		t.Errorf("shipped order refused: %v", err)
	}
}

// TestOutOfBandMutatorsMarkDue covers the mutations that reach a
// component outside the request/return paths: the drain's fetch gate
// and the measure-boundary prefetcher swap. Each changes what the
// component's NextEvent would answer, so each must leave it due — a
// cache that slept through the swap would clock its new prefetcher's
// first epoch late. The L1-I gets no prefetcher, so no swap wakes it.
func TestOutOfBandMutatorsMarkDue(t *testing.T) {
	d := detMatrix[len(detMatrix)-1]
	sys, err := Build(forkCfg(d), streamsFor(t, d.workloads, d.seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunWarmup(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	now := sys.CurrentCycle()
	for i := 0; i < sys.Cores(); i++ {
		if w := sys.Core(i).WakeAt(); w > now {
			t.Errorf("core %d asleep until %d after the drain re-opened fetch at %d", i, w, now)
		}
	}
	// The drained caches are idle with no prefetcher: asleep for good.
	asleep := 0
	for _, sl := range sys.slots {
		if sl.cache != nil && sl.cache.WakeAt() > now {
			asleep++
		}
	}
	if asleep == 0 {
		t.Fatal("no cache is asleep after the drain; the swap below proves nothing")
	}
	if err := sys.AttachPrefetchers(); err != nil {
		t.Fatal(err)
	}
	for i, sl := range sys.slots {
		if sl.cache != nil && sl.kind != KindL1I && sl.cache.WakeAt() > now {
			t.Errorf("slot %d (%v) asleep until %d after its prefetcher was swapped", i, sl.kind, sl.cache.WakeAt())
		}
	}
}

// TestEngineStatsAccounting checks the self-profile's own arithmetic:
// stepped and jumped cycles partition the measured phase, every slot of
// a stepped cycle is a visit or a skip, every stepped cycle has exactly
// one waker, idle visits are visits (and the reference schedule, which
// clocks everything, has some of every kind), and the reference
// schedule reports no jumps and no skips.
// The profile stays out of the serialized result.
func TestEngineStatsAccounting(t *testing.T) {
	for _, d := range []detSpec{detMatrix[1], detMatrix[len(detMatrix)-1]} {
		for _, disableFF := range []bool{false, true} {
			res := d.run(t, disableFF, nil)
			e := res.Engine
			var last int64
			for _, c := range res.CyclesPerCore {
				if c > last {
					last = c
				}
			}
			if e.SteppedCycles+e.JumpedCycles != uint64(last) {
				t.Errorf("%s ff-off=%v: stepped %d + jumped %d != %d measured cycles",
					d.name, disableFF, e.SteppedCycles, e.JumpedCycles, last)
			}
			var wakers uint64
			for k := Kind(0); k < NumKinds; k++ {
				n := uint64(1)
				if k >= KindL2 {
					n = uint64(res.Cores)
				}
				if e.Visits[k]+e.Skipped[k] != e.SteppedCycles*n {
					t.Errorf("%s ff-off=%v %v: visits %d + skipped %d != %d slots",
						d.name, disableFF, k, e.Visits[k], e.Skipped[k], e.SteppedCycles*n)
				}
				if e.Sole[k] > e.Waker[k] {
					t.Errorf("%s %v: sole %d > waker %d", d.name, k, e.Sole[k], e.Waker[k])
				}
				if e.Idle[k] > e.Visits[k] || disableFF && e.Idle[k] == 0 {
					t.Errorf("%s ff-off=%v %v: %d idle visits of %d", d.name, disableFF, k, e.Idle[k], e.Visits[k])
				}
				if disableFF && e.Skipped[k] != 0 {
					t.Errorf("%s %v: reference schedule skipped %d slots", d.name, k, e.Skipped[k])
				}
				wakers += e.Waker[k]
			}
			if wakers != e.SteppedCycles {
				t.Errorf("%s ff-off=%v: %d wakers for %d stepped cycles", d.name, disableFF, wakers, e.SteppedCycles)
			}
			if disableFF && (e.JumpedCycles != 0 || e.Jumps != 0) {
				t.Errorf("%s: reference schedule jumped (%d cycles in %d jumps)", d.name, e.JumpedCycles, e.Jumps)
			}
			if !disableFF && (e.Jumps == 0 || e.VisitsPerStep() >= float64(len(d.workloads)*4+2)) {
				t.Errorf("%s: gated schedule never jumped or visited everything (%d jumps, %.2f visits/step)",
					d.name, e.Jumps, e.VisitsPerStep())
			}
			if js := string(marshal(t, res)); strings.Contains(js, "Engine") || strings.Contains(js, "SteppedCycles") {
				t.Errorf("%s: engine self-profile leaked into the serialized result", d.name)
			}
		}
	}
}

// TestEngineProfileShowsMechanism holds the two benchmark command
// lines to the schedule the wake-gated step loop was built for: a
// DRAM-bound pointer chase steps a small fraction of its cycles and
// clocks under two components per step; the 8-core mix clocks under
// four of its 34. The counts are exact and repeat run to run.
func TestEngineProfileShowsMechanism(t *testing.T) {
	run := func(workloads []string, warmup, measure uint64) EngineStats {
		d := detSpec{workloads: workloads, seed: 1, l1d: "ipcp", l2: "ipcp"}
		res, err := d.build(t, false).Run(warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return res.Engine
	}
	e := run([]string{"mcf-994"}, 20_000, 100_000)
	if frac := float64(e.SteppedCycles) / float64(e.SteppedCycles+e.JumpedCycles); frac > 0.20 || e.VisitsPerStep() > 2 {
		t.Errorf("mcf-994: stepped %.1f%% of cycles at %.2f visits/step, want <= 20%% and <= 2",
			100*frac, e.VisitsPerStep())
	}
	e = run(detMatrix[len(detMatrix)-1].workloads, 2_000, 6_000)
	if e.VisitsPerStep() > 4 {
		t.Errorf("8-core mix: %.2f visits/step, want <= 4 of 34", e.VisitsPerStep())
	}
}

// TestAdvanceBudgetError pins Advance's deadlock guard on a system that
// can never retire (an empty trace): the error names the cycle budget
// that was exceeded, not what was left of it.
func TestAdvanceBudgetError(t *testing.T) {
	sys, err := Build(PaperConfig(1), []trace.Stream{&trace.SliceStream{}})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Advance(3)
	const want = "sim: Advance(3) exceeded 1001500 cycles"
	if err == nil || err.Error() != want {
		t.Fatalf("Advance on a system that cannot retire: got %v, want %q", err, want)
	}
}
