//go:build !race

package sim

import "testing"

// TestSteadyStateZeroAllocsAfterGuardTrip asserts the allocation-free
// steady state: once the pools, rings and page tables are past their
// growth phase, advancing the system recycles everything it touches.
// The tripped row holds that across a guard trip — the
// disabled-prefetcher path must not fall off the recycling fast path;
// the untripped row is the plain hot path (lbm-94, IPCP at L1-D + L2).
// Excluded under -race because the race runtime adds bookkeeping
// allocations of its own.
func TestSteadyStateZeroAllocsAfterGuardTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	for _, tc := range []struct {
		name       string
		build      func(*testing.T) *System
		warm, step uint64
		faults     int
	}{
		{"tripped", func(t *testing.T) *System { return buildTripSystem(t, 300) }, 60_000, 5_000, 1},
		{"untripped", func(t *testing.T) *System { return buildIPCP(t, "lbm-94") }, 50_000, 10_000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build(t)
			if err := sys.Advance(tc.warm); err != nil {
				t.Fatal(err)
			}
			if f := sys.PrefetcherFaults(); len(f) != tc.faults {
				t.Fatalf("expected %d guard trips during warmup, got %+v", tc.faults, f)
			}
			avg := testing.AllocsPerRun(5, func() {
				if err := sys.Advance(tc.step); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0.5 {
				t.Fatalf("steady state allocates %.1f times per %d instructions; want 0", avg, tc.step)
			}
		})
	}
}
