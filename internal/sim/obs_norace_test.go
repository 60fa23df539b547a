//go:build !race

package sim

import (
	"testing"

	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// TestNilHooksZeroAllocs is the telemetry-overhead guard: with no
// tracer, interval log, progress sink or span tracer attached, the
// steady-state simulation loop must stay allocation-free — the
// observability layer's disabled cost is one predictable branch.
// Excluded under -race because the race runtime allocates on its own.
func TestNilHooksZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	cfg := PaperConfig(1)
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = PrefetcherSpec{Name: "ipcp"}
	w, err := workload.Named("lbm-94")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cfg, []trace.Stream{w.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Run past the growth phase of the pools, rings and page tables.
	if err := sys.Advance(60_000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := sys.Advance(5_000); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("nil-hook steady state allocates %.1f times per 5k instructions; want 0", avg)
	}
}
