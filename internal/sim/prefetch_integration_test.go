package sim

import (
	"testing"

	"ipcp/internal/prefetch"
	"ipcp/internal/stats"

	_ "ipcp/internal/core" // register "ipcp"
)

// runWith runs one workload with the given L1D/L2 prefetchers and
// returns the result.
func runWith(t *testing.T, wl string, l1pf, l2pf string, warm, meas uint64) *Result {
	t.Helper()
	cfg := PaperConfig(1)
	cfg.L1DPrefetcher = PrefetcherSpec{Name: l1pf}
	cfg.L2Prefetcher = PrefetcherSpec{Name: l2pf}
	sys, err := Build(cfg, streamsFor(t, []string{wl}, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(warm, meas)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIPCPBeatsNoPrefetchOnStride(t *testing.T) {
	// bwaves-98 has several concurrent stride streams (the paper's
	// common case). The single-stream bwaves-2931 is the paper's own
	// outlier trace — in-page prefetching cannot lead a whole page.
	base := runWith(t, "bwaves-98", "none", "none", 5000, 40000)
	pf := runWith(t, "bwaves-98", "ipcp", "none", 5000, 40000)
	sp := stats.Speedup(pf.IPC[0], base.IPC[0])
	if sp < 1.10 {
		t.Errorf("IPCP speedup on constant-stride workload = %.3f, want > 1.10", sp)
	}
	// L1 miss counting includes MSHR merges (every access of an
	// in-flight line), which depresses the coverage ratio relative to
	// line counts; require a meaningful reduction rather than the
	// paper's line-level 0.60.
	cov := stats.Coverage(base.L1D[0].DemandMisses(), pf.L1D[0].DemandMisses())
	if cov < 0.15 {
		t.Errorf("IPCP L1 coverage on stride workload = %.2f, want > 0.15", cov)
	}
}

func TestIPCPBeatsNoPrefetchOnStream(t *testing.T) {
	base := runWith(t, "gcc-2226", "none", "none", 5000, 40000)
	pf := runWith(t, "gcc-2226", "ipcp", "none", 5000, 40000)
	sp := stats.Speedup(pf.IPC[0], base.IPC[0])
	if sp < 1.10 {
		t.Errorf("IPCP speedup on streaming workload = %.3f, want > 1.10", sp)
	}
	// GS must contribute on a streaming workload.
	gsIssued := pf.L1D[0].IssuedByClass[3] // memsys.ClassGS
	if gsIssued == 0 {
		t.Error("GS class idle on a streaming workload")
	}
}

func TestIPCPMultiLevelAddsOverL1Only(t *testing.T) {
	l1only := runWith(t, "bwaves-98", "ipcp", "none", 5000, 40000)
	multi := runWith(t, "bwaves-98", "ipcp", "ipcp", 5000, 40000)
	// Multi-level IPCP should not be slower (paper: +5.1% on average).
	if multi.IPC[0] < l1only.IPC[0]*0.98 {
		t.Errorf("multi-level IPCP slower than L1-only: %.3f vs %.3f",
			multi.IPC[0], l1only.IPC[0])
	}
	if multi.L2[0].PrefetchIssued == 0 {
		t.Error("L2 IPCP issued nothing")
	}
}

func TestIPCPDoesNotTankIrregular(t *testing.T) {
	base := runWith(t, "omnetpp-874", "none", "none", 5000, 25000)
	pf := runWith(t, "omnetpp-874", "ipcp", "none", 5000, 25000)
	sp := stats.Speedup(pf.IPC[0], base.IPC[0])
	if sp < 0.9 {
		t.Errorf("IPCP degraded an irregular workload by %.1f%%", (1-sp)*100)
	}
}

func TestIPCPAccuracyReasonable(t *testing.T) {
	pf := runWith(t, "lbm-94", "ipcp", "none", 5000, 40000)
	acc := pf.L1D[0].Accuracy()
	if acc < 0.5 {
		t.Errorf("IPCP L1 accuracy on lbm-like stream = %.2f, want > 0.5 (paper: 0.80)", acc)
	}
}

func TestBaselinesRunEndToEnd(t *testing.T) {
	// Every registered baseline, and each part of the spp-ppf-dspatch
	// composite on its own, must survive a short full-system run.
	specs := map[string]PrefetcherSpec{
		"spp-ppf": {New: func() (prefetch.Prefetcher, error) { return prefetch.NewPPF(prefetch.NewSPP()), nil }},
		"dspatch": {New: func() (prefetch.Prefetcher, error) { return prefetch.NewDSPatch(), nil }},
	}
	for _, name := range []string{"nl", "ipstride", "stream", "bop", "mlop",
		"spp", "vldp", "bingo", "sms", "spp-ppf-dspatch", "tskid"} {
		specs[name] = PrefetcherSpec{Name: name}
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			cfg := PaperConfig(1)
			cfg.L1DPrefetcher = spec
			sys, err := Build(cfg, streamsFor(t, []string{"mcf-1536"}, 1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(2000, 10000)
			if err != nil {
				t.Fatal(err)
			}
			if res.IPC[0] <= 0 {
				t.Errorf("%s: IPC %f", name, res.IPC[0])
			}
		})
	}
}
