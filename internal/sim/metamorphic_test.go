package sim

import (
	"bytes"
	"testing"

	"ipcp/internal/core"
	"ipcp/internal/prefetch"
)

// Metamorphic relations: the simulator checked against itself where no
// reference result exists.

// silent is prefetch.Nil under another type, so the cache and the
// system treat it as a real prefetcher: guarded, called on every
// access, fill and cycle.
type silent struct{ prefetch.Nil }

// TestSilentPrefetcherIsNoPrefetcher: an L1-D prefetcher that never
// issues — prefetch.Nil on the full prefetcher path, or an L1 IPCP with
// all four classes off — gives the Result of running with none. The
// IPCP introspection snapshots describe the prefetcher, not the run,
// and are left out of the comparison.
func TestSilentPrefetcherIsNoPrefetcher(t *testing.T) {
	off := core.DefaultL1Config()
	off.EnableCS, off.EnableCPLX, off.EnableGS, off.EnableNL = false, false, false, false
	silents := map[string]PrefetcherSpec{
		"nil":                   {New: func() (prefetch.Prefetcher, error) { return silent{}, nil }},
		"ipcp, every class off": {New: func() (prefetch.Prefetcher, error) { return core.NewL1IPCP(off), nil }},
	}
	run := func(workload string, l1d PrefetcherSpec) []byte {
		cfg := PaperConfig(1)
		cfg.L1DPrefetcher = l1d
		sys, err := Build(cfg, streamsFor(t, []string{workload}, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(2_000, 8_000)
		if err != nil {
			t.Fatal(err)
		}
		res.IPCPL1, res.IPCPL2 = nil, nil
		return marshal(t, res)
	}
	for _, w := range []string{"lbm-94", "mcf-994", "gcc-2226"} {
		want := run(w, PrefetcherSpec{})
		for name, l1d := range silents {
			if got := run(w, l1d); !bytes.Equal(got, want) {
				t.Errorf("%s: L1-D %s differs from no prefetcher\ngot:  %s\nwant: %s", w, name, got, want)
			}
		}
	}
}
