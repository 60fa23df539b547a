package sim

import (
	"encoding/json"
	"testing"

	"ipcp/internal/telemetry"
)

// detSpec is one cell of the determinism matrix.
type detSpec struct {
	name      string
	workloads []string
	seed      int64
	l1d, l2   string
	// tweak, when set, adjusts the paper configuration (it runs before
	// the prefetcher and scheduler fields are filled in).
	tweak func(*Config)
}

func (d detSpec) build(t *testing.T, disableFF bool) *System {
	t.Helper()
	cfg := d.config()
	cfg.DisableFastForward = disableFF
	sys, err := Build(cfg, streamsFor(t, d.workloads, d.seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func (d detSpec) config() Config {
	cfg := PaperConfig(len(d.workloads))
	if d.tweak != nil {
		d.tweak(&cfg)
	}
	cfg.Seed = d.seed
	cfg.L1DPrefetcher = PrefetcherSpec{Name: d.l1d}
	cfg.L2Prefetcher = PrefetcherSpec{Name: d.l2}
	return cfg
}

// storeHeavy shrinks the hierarchy to a few KB and the DRAM queues to
// eight entries, so a store stream's dirty evictions reach the
// controller while reads are always waiting: the write queue climbs
// past the drain threshold and drains below the low one, repeatedly —
// on lbm-94 the drain mode flips nine times inside clocked cycles and
// nine times inside cycles the scheduler skipped the controller on.
func storeHeavy(cfg *Config) {
	cfg.L1D.Sets, cfg.L1D.Ways = 4, 2
	cfg.L2.Sets, cfg.L2.Ways = 8, 2
	cfg.LLC.Sets, cfg.LLC.Ways = 16, 2
	cfg.DRAM.QueueSize = 8
}

func (d detSpec) run(t *testing.T, disableFF bool, ilog *telemetry.IntervalLog) *Result {
	t.Helper()
	sys := d.build(t, disableFF)
	if ilog != nil {
		sys.SetIntervalLog(ilog)
	}
	res, err := sys.Run(2000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func marshal(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var detMatrix = []detSpec{
	{name: "lbm-ipcp", workloads: []string{"lbm-94"}, seed: 1, l1d: "ipcp", l2: "ipcp"},
	{name: "mcf-ipcp", workloads: []string{"mcf-1536"}, seed: 7, l1d: "ipcp", l2: "ipcp"},
	{name: "bwaves-none", workloads: []string{"bwaves-2931"}, seed: 3},
	{name: "gcc-spp", workloads: []string{"gcc-2226"}, seed: 5, l2: "spp"},
	{name: "lbm-stores", workloads: []string{"lbm-94"}, seed: 9, l1d: "ipcp", l2: "ipcp", tweak: storeHeavy},
	{name: "pair-ipcp", seed: 2, l1d: "ipcp", l2: "ipcp",
		workloads: []string{"lbm-94", "mcf-1536"}},
	{name: "mix4-ipcp", seed: 2, l1d: "ipcp", l2: "ipcp",
		workloads: []string{"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387"}},
	{name: "mix8-ipcp", seed: 7, l1d: "ipcp", l2: "ipcp",
		workloads: []string{"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387",
			"roms-1070", "omnetpp-17", "gcc-2226", "xalancbmk-165"}},
}

// TestDeterminismRepeatability runs each spec twice under identical
// conditions and requires byte-identical marshaled Results — the
// repeatability half of the determinism golden suite.
func TestDeterminismRepeatability(t *testing.T) {
	for _, d := range detMatrix {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			a := marshal(t, d.run(t, false, nil))
			b := marshal(t, d.run(t, false, nil))
			if string(a) != string(b) {
				t.Errorf("two identical runs produced different Results:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestFastForwardMatchesReference is the scheduler's golden test: the
// next-event fast-forwarding run must be bit-identical to the
// cycle-by-cycle reference — same hits, misses, MPKI inputs, IPC
// (hence speedups), per-class prefetch counters, stall accounting, and
// DRAM counters — across single- and multi-core specs with and without
// prefetching.
func TestFastForwardMatchesReference(t *testing.T) {
	for _, d := range detMatrix {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			fast := marshal(t, d.run(t, false, nil))
			ref := marshal(t, d.run(t, true, nil))
			if string(fast) != string(ref) {
				t.Errorf("fast-forwarded Result diverges from cycle-by-cycle reference:\nfast: %s\nref:  %s", fast, ref)
			}
		})
	}
}

// TestFastForwardIntervalSamples pins the telemetry path: interval
// samples must land on the same cycle boundaries with the same contents
// whether or not idle spans are skipped (jumps are capped at sample
// boundaries) — on one core, where most samples close inside a jump,
// and on eight, where they close while some cores are skipped and
// others clocked.
func TestFastForwardIntervalSamples(t *testing.T) {
	for _, spec := range []detSpec{
		{name: "mcf", workloads: []string{"mcf-1536"}, seed: 4, l1d: "ipcp", l2: "ipcp"},
		detMatrix[len(detMatrix)-1],
	} {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			fastLog := telemetry.NewIntervalLog(1000)
			refLog := telemetry.NewIntervalLog(1000)
			spec.run(t, false, fastLog)
			spec.run(t, true, refLog)
			fast, ref := fastLog.Samples(), refLog.Samples()
			if len(fast) == 0 {
				t.Fatal("no interval samples recorded")
			}
			if len(fast) != len(ref) {
				t.Fatalf("sample count diverges: fast %d vs reference %d", len(fast), len(ref))
			}
			for i := range fast {
				if fast[i] != ref[i] {
					t.Errorf("sample %d diverges:\nfast: %+v\nref:  %+v", i, fast[i], ref[i])
				}
			}
		})
	}
}

// TestDeterminismStoreHeavyRow keeps the store-heavy row honest: it is
// in the matrix to push writebacks through the DRAM write queue, so it
// must actually produce some.
func TestDeterminismStoreHeavyRow(t *testing.T) {
	for _, d := range detMatrix {
		if d.name != "lbm-stores" {
			continue
		}
		if res := d.run(t, false, nil); res.DRAM.Writes < 32 {
			t.Errorf("store-heavy row wrote %d blocks to DRAM, want at least 32", res.DRAM.Writes)
		}
		return
	}
	t.Fatal("no lbm-stores row in detMatrix")
}
