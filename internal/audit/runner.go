package audit

import (
	"context"
	"fmt"
	"sort"

	"ipcp/internal/experiments"
	"ipcp/internal/sim"
)

// RunOptions parametrizes one audited run.
type RunOptions struct {
	// Warmup and Measure are per-core instruction budgets (defaults
	// 2_000 / 8_000 — enough to exercise training, throttling windows
	// and the NL gate on the bundled workloads while keeping the full
	// sweep fast; the audit instrumentation costs well over the plain
	// simulation).
	Warmup, Measure uint64
	// Seed drives page allocation (default 1, the PaperConfig seed).
	Seed int64
	// DisableFastForward selects the cycle-by-cycle reference scheduler.
	DisableFastForward bool
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Warmup == 0 {
		o.Warmup = 2_000
	}
	if o.Measure == 0 {
		o.Measure = 8_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Outcome is one fully audited run: the checker holds the violations,
// the recorded issue streams and the per-interval miss buckets.
type Outcome struct {
	Workload    string
	FastForward bool
	Checker     *Checker
	Result      *sim.Result
}

func (o *Outcome) mode() string {
	if o.FastForward {
		return "ff-on"
	}
	return "ff-off"
}

// RunWorkload executes one bundled workload on the paper's single-core
// system with IPCP at L1-D and L2, the full audit harness attached, and
// stream recording on. The end-of-run checks have already run on the
// returned outcome's Checker.
func RunWorkload(ctx context.Context, name string, opt RunOptions) (*Outcome, error) {
	opt = opt.withDefaults()
	k := NewWithOptions(Options{RecordStreams: true})
	sys, err := build(name, opt, k)
	if err != nil {
		return nil, err
	}
	res, err := sys.RunContext(ctx, opt.Warmup, opt.Measure)
	if err != nil {
		return nil, fmt.Errorf("audit: %s (%s): %w", name, boolMode(opt.DisableFastForward), err)
	}
	k.Finish()
	return &Outcome{
		Workload:    name,
		FastForward: !opt.DisableFastForward,
		Checker:     k,
		Result:      res,
	}, nil
}

// build assembles the audited configuration — the paper's single-core
// system with IPCP at L1-D and L2, the same RunSpec an ipcpd client
// would submit — with the audit harness k attached, or, for k nil, in
// CacheWarmOnly mode for the fork-vs-cold differential.
func build(name string, opt RunOptions, k *Checker) (*sim.System, error) {
	spec := experiments.RunSpec{Workloads: []string{name}, L1D: "ipcp", L2: "ipcp"}
	streams, err := spec.Streams(opt.Seed)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config(opt.Seed)
	cfg.DisableFastForward = opt.DisableFastForward
	if k != nil {
		cfg.Audit = k
	} else {
		cfg.CacheWarmOnly = true
	}
	return sim.Build(cfg, streams)
}

func boolMode(disableFF bool) string {
	if disableFF {
		return "ff-off"
	}
	return "ff-on"
}

// maxDiffs caps the divergences reported per outcome pair.
const maxDiffs = 8

// DiffOutcomes compares two audited runs of the same workload — the
// fast-forwarding scheduler against the cycle-by-cycle reference — and
// returns human-readable divergences: final performance numbers, the
// complete prefetch issue streams (cycle, address, class, metadata),
// and the per-interval demand-miss buckets of every cache.
func DiffOutcomes(a, b *Outcome) []string {
	var diffs []string
	add := func(format string, args ...any) {
		if len(diffs) < maxDiffs {
			diffs = append(diffs, fmt.Sprintf("%s: %s vs %s: %s",
				a.Workload, a.mode(), b.mode(), fmt.Sprintf(format, args...)))
		}
	}

	diffResults(a.Result, b.Result, add)

	sa, sb := a.Checker.Streams(), b.Checker.Streams()
	for _, name := range sortedKeys(sa) {
		ea, eb := sa[name], sb[name]
		if len(ea) != len(eb) {
			add("%s issued %d prefetches vs %d", name, len(ea), len(eb))
		}
		n := len(ea)
		if len(eb) < n {
			n = len(eb)
		}
		for i := 0; i < n; i++ {
			if ea[i] != eb[i] {
				add("%s prefetch %d: cycle %d %#x class %v meta %#x vs cycle %d %#x class %v meta %#x",
					name, i,
					ea[i].Cycle, ea[i].Addr, ea[i].Class, ea[i].Meta,
					eb[i].Cycle, eb[i].Addr, eb[i].Class, eb[i].Meta)
				break // one positional mismatch shifts everything after it
			}
		}
	}

	ma, mb := a.Checker.MissIntervals(), b.Checker.MissIntervals()
	for _, name := range sortedKeys(ma) {
		ba, bb := ma[name], mb[name]
		for _, iv := range sortedIntervals(ba, bb) {
			if ba[iv] != bb[iv] {
				add("%s interval %d demand misses %d vs %d", name, iv, ba[iv], bb[iv])
			}
		}
	}
	return diffs
}

// diffResults reports, through add, where two results' headline
// numbers differ: each core's measured cycles and L1-D misses, and the
// LLC's misses.
func diffResults(a, b *sim.Result, add func(format string, args ...any)) {
	for i := range a.CyclesPerCore {
		if a.CyclesPerCore[i] != b.CyclesPerCore[i] {
			add("core %d measured %d cycles vs %d", i, a.CyclesPerCore[i], b.CyclesPerCore[i])
		}
	}
	for i := range a.L1D {
		if a.L1D[i].Miss != b.L1D[i].Miss {
			add("core %d L1D misses %v vs %v", i, a.L1D[i].Miss, b.L1D[i].Miss)
		}
	}
	if a.LLC.Miss != b.LLC.Miss {
		add("LLC misses %v vs %v", a.LLC.Miss, b.LLC.Miss)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedIntervals(a, b map[int64]uint64) []int64 {
	seen := make(map[int64]bool, len(a)+len(b))
	var ivs []int64
	for iv := range a {
		if !seen[iv] {
			seen[iv] = true
			ivs = append(ivs, iv)
		}
	}
	for iv := range b {
		if !seen[iv] {
			seen[iv] = true
			ivs = append(ivs, iv)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i] < ivs[j] })
	return ivs
}

// SuiteReport aggregates a differential sweep.
type SuiteReport struct {
	Workloads   int      // workloads swept
	Runs        int      // audited runs executed (two per workload)
	Violations  []string // reference-model and invariant violations, tagged by run
	Divergences []string // fast-forward vs reference divergences
}

// Err summarizes the report as an error, nil when the sweep was clean.
func (r *SuiteReport) Err() error {
	if len(r.Violations) == 0 && len(r.Divergences) == 0 {
		return nil
	}
	return fmt.Errorf("audit suite: %d violation(s), %d divergence(s) across %d runs",
		len(r.Violations), len(r.Divergences), r.Runs)
}

// String renders the report for CLI output.
func (r *SuiteReport) String() string {
	s := fmt.Sprintf("audit: %d workloads, %d runs: %d violation(s), %d divergence(s)",
		r.Workloads, r.Runs, len(r.Violations), len(r.Divergences))
	for _, v := range r.Violations {
		s += "\n  violation: " + v
	}
	for _, d := range r.Divergences {
		s += "\n  divergence: " + d
	}
	return s
}

// RunSuite runs the differential audit over the named workloads: each
// one is simulated twice — fast-forward on and off — with the full
// harness attached, and the two runs are diffed. Pass
// workload.Names(workload.All()) for the complete bundled suite.
func RunSuite(ctx context.Context, names []string, opt RunOptions) (*SuiteReport, error) {
	rep := &SuiteReport{}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		optOff := opt
		optOff.DisableFastForward = true
		off, err := RunWorkload(ctx, name, optOff)
		if err != nil {
			return rep, err
		}
		optOn := opt
		optOn.DisableFastForward = false
		on, err := RunWorkload(ctx, name, optOn)
		if err != nil {
			return rep, err
		}
		rep.Workloads++
		rep.Runs += 2
		for _, o := range []*Outcome{off, on} {
			for _, v := range o.Checker.Violations() {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s (%s): %s", o.Workload, o.mode(), v))
			}
			if d := o.Checker.Dropped(); d > 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s (%s): %d further violation(s) dropped", o.Workload, o.mode(), d))
			}
		}
		rep.Divergences = append(rep.Divergences, DiffOutcomes(on, off)...)
	}
	return rep, nil
}
