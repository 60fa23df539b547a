package sim

import (
	"testing"

	"ipcp/internal/core"
	"ipcp/internal/prefetch"
)

// TestMetadataReachesL2 runs the full stack and verifies the L1→L2
// metadata channel: the L2 IPCP must issue class-attributed prefetches
// that can only come from decoded metadata.
func TestMetadataReachesL2(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
	var l2p *core.L2IPCP
	cfg.L2Prefetcher = PrefetcherSpec{New: func() (prefetch.Prefetcher, error) {
		l2p = core.NewL2IPCP(core.DefaultL2Config())
		return l2p, nil
	}}
	sys, err := Build(cfg, streamsFor(t, []string{"bwaves-98"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10000, 40000); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range l2p.Issued {
		total += n
	}
	if total == 0 {
		t.Fatal("L2 IPCP issued nothing — metadata channel broken")
	}
	// On a constant-stride workload the L2's issues must be CS class.
	if l2p.Issued[2] == 0 && l2p.Issued[1] == 0 { // CPLX=2 never expected; CS=1
		t.Errorf("L2 issues not CS-attributed: %v", l2p.Issued)
	}
}

// TestMetadataOffRemovesL2Prefetching verifies the EmitMetadata switch
// end-to-end (Fig. 13b's "metadata off" bar).
func TestMetadataOffRemovesL2Prefetching(t *testing.T) {
	cfg := PaperConfig(1)
	l1cfg := core.DefaultL1Config()
	l1cfg.EmitMetadata = false
	cfg.L1DPrefetcher = PrefetcherSpec{New: func() (prefetch.Prefetcher, error) {
		return core.NewL1IPCP(l1cfg), nil
	}}
	var l2p *core.L2IPCP
	cfg.L2Prefetcher = PrefetcherSpec{New: func() (prefetch.Prefetcher, error) {
		l2p = core.NewL2IPCP(core.DefaultL2Config())
		return l2p, nil
	}}
	sys, err := Build(cfg, streamsFor(t, []string{"bwaves-98"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10000, 40000); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range l2p.Issued {
		total += n
	}
	if total != 0 {
		t.Errorf("L2 IPCP issued %d prefetches with metadata disabled", total)
	}
}

// TestMulticoreDeterminism covers the shared-LLC path.
func TestMulticoreDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := PaperConfig(2)
		cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
		cfg.L2Prefetcher = PrefetcherSpec{Name: "ipcp"}
		sys, err := Build(cfg, streamsFor(t, []string{"lbm-94", "mcf-1536"}, 3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(3000, 12000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Errorf("core %d IPC differs: %v vs %v", i, a.IPC[i], b.IPC[i])
		}
	}
	if a.LLC != b.LLC {
		t.Error("LLC stats not deterministic")
	}
}

// TestPrefetchClassBitsFlow checks the per-line class tags: useful
// prefetch attribution must land in the class that issued it.
func TestPrefetchClassBitsFlow(t *testing.T) {
	res := runWith(t, "fotonik3d-7084", "ipcp", "ipcp", 20000, 60000)
	l1 := res.L1D[0]
	var attributed uint64
	for _, u := range l1.UsefulByClass {
		attributed += u
	}
	if l1.PrefetchUseful == 0 {
		t.Fatal("no useful prefetches")
	}
	if attributed != l1.PrefetchUseful {
		t.Errorf("attributed %d != useful %d", attributed, l1.PrefetchUseful)
	}
}
