package ipcp_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ipcp"
	"ipcp/internal/experiments"
)

func TestFacadeRunSingle(t *testing.T) {
	res, err := ipcp.Run(ipcp.RunConfig{
		Workload:      "bwaves-98",
		L1DPrefetcher: "ipcp",
		L2Prefetcher:  "ipcp",
		Warmup:        10_000,
		Measure:       30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC[0] <= 0 {
		t.Fatalf("IPC = %f", res.IPC[0])
	}
	if res.L1D[0].PrefetchIssued == 0 {
		t.Error("IPCP issued no prefetches through the facade")
	}
}

func TestFacadeMix(t *testing.T) {
	res, err := ipcp.Run(ipcp.RunConfig{
		Mix:           []string{"lbm-94", "omnetpp-17"},
		L1DPrefetcher: "ipcp",
		Warmup:        5_000,
		Measure:       15_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 2 {
		t.Fatalf("cores = %d", len(res.IPC))
	}
}

func TestFacadeSpeedup(t *testing.T) {
	sp, err := ipcp.Speedup("fotonik3d-7084", "ipcp", "ipcp", 20_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1.2 {
		t.Errorf("IPCP speedup on fotonik-like = %.3f, want > 1.2", sp)
	}
}

func TestFacadeCustomPrefetcher(t *testing.T) {
	cfg := ipcp.DefaultL1Config()
	cfg.EnableGS = false
	res, err := ipcp.Run(ipcp.RunConfig{
		Workload:  "gcc-2226",
		CustomL1D: ipcp.NewL1IPCP(cfg),
		Warmup:    5_000,
		Measure:   15_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1D[0].IssuedByClass[ipcp.ClassGS] != 0 {
		t.Error("GS disabled but issued")
	}
}

func TestFacadeLists(t *testing.T) {
	if len(ipcp.Workloads()) < 30 {
		t.Error("workload list too small")
	}
	if len(ipcp.MemoryIntensiveWorkloads()) < 20 {
		t.Error("memory-intensive list too small")
	}
	found := false
	for _, p := range ipcp.Prefetchers() {
		if p == "ipcp" {
			found = true
		}
	}
	if !found {
		t.Error("ipcp missing from prefetcher registry")
	}
}

func TestFacadeStorage(t *testing.T) {
	st := ipcp.StorageBudget(ipcp.DefaultL1Config(), ipcp.DefaultL2Config())
	if st.TotalBytes() != 895 {
		t.Errorf("storage = %d bytes, want 895", st.TotalBytes())
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := ipcp.Run(ipcp.RunConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := ipcp.Run(ipcp.RunConfig{Workload: "not-a-trace"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ipcp.Run(ipcp.RunConfig{Workload: "lbm-94", L1DPrefetcher: "bogus"}); err == nil {
		t.Error("unknown prefetcher accepted")
	}
}

// TestFacadeMatchesSession holds the two config assemblers together:
// ipcp.Run and experiments.Session.Run, asked for the same run at the
// same scale, return JSON-identical results — single-core and 2-core.
// (The Engine self-profile is json:"-", so it is compared directly.)
func TestFacadeMatchesSession(t *testing.T) {
	scale := experiments.Scale{Warmup: 8_000, Measure: 20_000, Seed: 1}
	for _, rc := range []ipcp.RunConfig{{Workload: "lbm-94"}, {Mix: []string{"mcf-994", "bwaves-98"}}} {
		mix := rc.Mix
		if rc.Workload != "" {
			mix = []string{rc.Workload}
		}
		rc.L1DPrefetcher, rc.L2Prefetcher = "ipcp", "ipcp"
		rc.Warmup, rc.Measure, rc.Seed = scale.Warmup, scale.Measure, 7
		facade, err := ipcp.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		session, err := experiments.NewSession(scale).Run(experiments.RunSpec{Workloads: mix, L1D: "ipcp", L2: "ipcp", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		fj, _ := json.Marshal(facade)
		sj, _ := json.Marshal(session)
		if string(fj) != string(sj) || facade.Engine != session.Engine {
			t.Errorf("%v: facade and session results differ:\n%s\n%s", mix, fj, sj)
		}
	}
}

// TestFacadeRefusesCustomL1DOnMix: CustomL1D is one prefetcher
// instance, and a system builds one L1-D prefetcher per core, so on a
// multi-core mix every core would share (and double-count into) it. The
// facade refuses the combination and names the field.
func TestFacadeRefusesCustomL1DOnMix(t *testing.T) {
	_, err := ipcp.Run(ipcp.RunConfig{
		Mix:       []string{"lbm-94", "mcf-994"},
		CustomL1D: ipcp.NewL1IPCP(ipcp.DefaultL1Config()),
		Warmup:    5_000,
		Measure:   20_000,
	})
	if err == nil || !strings.Contains(err.Error(), "CustomL1D") {
		t.Fatalf("CustomL1D on a 2-core mix: err = %v, want a refusal naming CustomL1D", err)
	}
}

// TestFacadeEqualsSession: the facade builds its system from the same
// RunSpec the session runs, so the two agree on the whole sim.Result —
// on a 2-core mix, and on an IPCP variant given to the facade as an
// instance and to the session as a configuration.
func TestFacadeEqualsSession(t *testing.T) {
	scale := experiments.Scale{Warmup: 5_000, Measure: 20_000, Seed: 3}
	variant := ipcp.DefaultL1Config()
	variant.EnableGS = false
	for _, c := range []struct {
		name string
		rc   ipcp.RunConfig
		spec experiments.RunSpec
	}{
		{"2-core mix",
			ipcp.RunConfig{Mix: []string{"lbm-94", "mcf-994"}, L1DPrefetcher: "ipcp", L2Prefetcher: "ipcp"},
			experiments.RunSpec{Workloads: []string{"lbm-94", "mcf-994"}, L1D: "ipcp", L2: "ipcp"}},
		{"IPCP variant",
			ipcp.RunConfig{Workload: "gcc-2226", CustomL1D: ipcp.NewL1IPCP(variant)},
			experiments.RunSpec{Workloads: []string{"gcc-2226"}, IPCPL1: &variant}},
	} {
		c.rc.Warmup, c.rc.Measure, c.rc.Seed = scale.Warmup, scale.Measure, scale.Seed
		facade, err := ipcp.Run(c.rc)
		if err != nil {
			t.Fatal(err)
		}
		session, err := experiments.NewSession(scale).Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(facade, session) {
			t.Errorf("%s: facade and session results differ:\n facade  %+v\n session %+v", c.name, facade, session)
		}
	}
}
