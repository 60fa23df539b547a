package audit

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ipcp/internal/core"
	"ipcp/internal/experiments"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/sim"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// subsetWorkloads spans the IPCP classes: constant stride (bwaves),
// complex stride (cactuBSSN), dense streaming (lbm, roms), irregular
// (mcf, omnetpp), big-code (xalancbmk) and a cloud trace with heavy
// instruction misses.
var subsetWorkloads = []string{
	"bwaves-98", "cactuBSSN-2421", "lbm-94", "roms-1070",
	"mcf-1152", "omnetpp-17", "xalancbmk-165", "cassandra",
}

// suiteNames honors AUDIT_FULL=1: the complete bundled workload suite
// (make audit) versus the class-spanning subset (plain go test).
func suiteNames() []string {
	if os.Getenv("AUDIT_FULL") != "" {
		return workload.Names(workload.All())
	}
	return subsetWorkloads
}

// TestDifferentialSuite is the acceptance gate: every workload runs
// through the fully audited system twice — fast-forward on and off —
// and must produce zero invariant violations, zero reference-model
// divergences, and bit-identical results and prefetch streams across
// the two scheduler modes.
func TestDifferentialSuite(t *testing.T) {
	rep, err := RunSuite(context.Background(), suiteNames(), RunOptions{})
	if err != nil {
		t.Fatalf("suite failed to run: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("%v\n%s", err, rep.String())
	}
	if rep.Runs != 2*len(suiteNames()) {
		t.Fatalf("expected %d runs, got %d", 2*len(suiteNames()), rep.Runs)
	}
}

// TestAuditDoesNotChangeResults: the differential suites read their
// conclusions off audited runs, so the harness must observe without
// perturbing. For the same RunSpec and seed, RunWorkload's Result is
// byte-identical (as JSON) to the plain run a session executes.
func TestAuditDoesNotChangeResults(t *testing.T) {
	opt := RunOptions{}.withDefaults()
	s := experiments.NewSession(experiments.Scale{Warmup: opt.Warmup, Measure: opt.Measure, Seed: opt.Seed})
	for _, name := range []string{"lbm-94", "mcf-994", "gcc-2226", "roms-1070"} {
		audited, err := RunWorkload(context.Background(), name, opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Run(experiments.RunSpec{Workloads: []string{name}, L1D: "ipcp", L2: "ipcp"})
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(audited.Result)
		pj, _ := json.Marshal(plain)
		if string(aj) != string(pj) {
			t.Errorf("%s: the audited result differs from the plain run:\naudited: %s\nplain:   %s", name, aj, pj)
		}
	}
}

// TestDeepThrottleRun drives enough prefetch fills through one
// memory-intensive workload to close multiple 256-fill accuracy
// windows, exercising the throttle cross-checks (postFill) for real.
func TestDeepThrottleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("deep run")
	}
	out, err := RunWorkload(context.Background(), "roms-1070", RunOptions{Warmup: 5_000, Measure: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if vs := out.Checker.Violations(); len(vs) > 0 {
		t.Fatalf("violations on deep run: %v", vs)
	}
	snap := out.Result.IPCPL1[0]
	if snap == nil {
		t.Fatal("no L1 IPCP snapshot")
	}
	var fills uint64
	for c := 0; c < memsys.NumClasses; c++ {
		fills += snap.Classes[c].Fills
	}
	if fills < 512 {
		t.Fatalf("deep run filled only %d prefetches; throttle windows not exercised", fills)
	}
}

// dropEvery suppresses every Nth candidate between the real IPCP and
// the issuer — a synthetic bug the lockstep oracle must catch.
type dropEvery struct {
	inner prefetch.Prefetcher
	n     int
	seen  int
}

func (d *dropEvery) Name() string                          { return d.inner.Name() }
func (d *dropEvery) Unwrap() prefetch.Prefetcher           { return d.inner }
func (d *dropEvery) Fill(now int64, f *prefetch.FillEvent) { d.inner.Fill(now, f) }
func (d *dropEvery) Cycle(now int64)                       { d.inner.Cycle(now) }
func (d *dropEvery) Operate(now int64, a *prefetch.Access, iss prefetch.Issuer) {
	d.inner.Operate(now, a, &dropIssuer{d: d, inner: iss})
}

type dropIssuer struct {
	d     *dropEvery
	inner prefetch.Issuer
}

func (di *dropIssuer) Issue(c prefetch.Candidate) bool {
	di.d.seen++
	if di.d.seen%di.d.n == 0 {
		return false // swallowed: never reaches the cache (or the recorder)
	}
	return di.inner.Issue(c)
}

// TestOracleCatchesSuppressedCandidates plants the dropEvery bug under
// the audit harness and demands the oracle flag the missing candidates.
func TestOracleCatchesSuppressedCandidates(t *testing.T) {
	spec, err := workload.Named("bwaves-98")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.PaperConfig(1)
	cfg.L1DPrefetcher = sim.PrefetcherSpec{New: func() (prefetch.Prefetcher, error) {
		return &dropEvery{inner: core.NewL1IPCP(core.DefaultL1Config()), n: 5}, nil
	}}
	k := New()
	cfg.Audit = k
	sys, err := sim.Build(cfg, []trace.Stream{spec.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(500, 3_000); err != nil {
		t.Fatal(err)
	}
	k.Finish()
	found := false
	for _, v := range k.Violations() {
		if v.Kind == "missing-candidate" || v.Kind == "extra-candidate" || v.Kind == "stream-mismatch" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("planted candidate-suppression bug not caught; violations: %v", k.Violations())
	}
}

// TestCheckerErrFormatting covers the bounded error summary.
func TestCheckerErrFormatting(t *testing.T) {
	k := NewWithOptions(Options{MaxViolations: 3})
	if err := k.Err(); err != nil {
		t.Fatalf("clean checker returned %v", err)
	}
	k = NewWithOptions(Options{MaxViolations: 3})
	for i := 0; i < 5; i++ {
		k.report(Violation{Where: "t", Kind: "k", Detail: "d"})
	}
	if len(k.Violations()) != 3 || k.Dropped() != 2 {
		t.Fatalf("cap not applied: kept %d dropped %d", len(k.Violations()), k.Dropped())
	}
	if err := k.Err(); err == nil || !strings.Contains(err.Error(), "5 violation(s)") {
		t.Fatalf("summary error wrong: %v", err)
	}
}

// TestRefRRFilterMatchesProduction pins the mirror filter to the
// production tag fold and FIFO shape.
func TestRefRRFilterMatchesProduction(t *testing.T) {
	f := newRefRR()
	a := memsys.Addr(0x1000)
	if f.hit(a) {
		t.Fatal("empty filter hit")
	}
	f.insert(a)
	if !f.hit(a) {
		t.Fatal("inserted tag missed")
	}
	// Same 12-bit folded tag ⇒ hit even for a different block.
	alias := memsys.Addr((memsys.BlockNumber(a) ^ (1<<12 | 1)) << memsys.BlockBits)
	_ = alias
	// FIFO capacity: 32 further inserts evict the original tag.
	for i := 0; i < 32; i++ {
		f.insert(memsys.Addr(0x100000 + i*0x40*0x40))
	}
	if f.hit(a) {
		t.Fatal("tag survived 32 evicting inserts")
	}
}
