package audit

import (
	"context"
	"encoding/json"
	"fmt"

	"ipcp/internal/sim"
)

// --- Fork-vs-cold differential -------------------------------------------
//
// The shared-warmup sweep engine (internal/experiments) forks measure
// phases from a warmup snapshot instead of re-simulating the warmup.
// The claim underneath it — that a restored system is architecturally
// indistinguishable from the system that produced the snapshot — is
// load-bearing for every sweep result, so this mode proves it per
// workload, RunSuite-style: run cold through the CacheWarmOnly phase
// decomposition, run again forked through snapshot/restore, and demand
// byte-identical Result JSON. The audit oracles themselves cannot ride
// along (they attach to prefetchers at build time, which CacheWarmOnly
// forbids); the Result covers cycles, per-cache hit/miss/prefetch
// counters, stall accounting, DRAM traffic and the IPCP class
// statistics, so any state the snapshot loses or invents surfaces as a
// diff.

// forkCold runs one workload cold through the shared-warmup phases.
func forkCold(ctx context.Context, name string, opt RunOptions) (*sim.Result, error) {
	sys, err := build(name, opt, nil)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx, opt.Warmup, opt.Measure)
}

// forkForked snapshots the warmup in one system and measures in a
// second system restored from the encoded snapshot, exercising the same
// gob spill path the sweep scheduler's disk cache uses.
func forkForked(ctx context.Context, name string, opt RunOptions) (*sim.Result, error) {
	warm, err := build(name, opt, nil)
	if err != nil {
		return nil, err
	}
	if err := warm.RunWarmup(ctx, opt.Warmup); err != nil {
		return nil, err
	}
	snap, err := warm.Snapshot()
	if err != nil {
		return nil, err
	}
	blob, err := sim.EncodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	snap, err = sim.DecodeSnapshot(blob)
	if err != nil {
		return nil, err
	}

	sys, err := build(name, opt, nil)
	if err != nil {
		return nil, err
	}
	if err := sys.RestoreSnapshot(snap); err != nil {
		return nil, err
	}
	if err := sys.AttachPrefetchers(); err != nil {
		return nil, err
	}
	return sys.RunMeasure(ctx, opt.Measure)
}

// RunForkSuite runs the fork-vs-cold differential over the named
// workloads. Pass workload.Names(workload.All()) for the complete
// bundled suite.
func RunForkSuite(ctx context.Context, names []string, opt RunOptions) (*SuiteReport, error) {
	opt = opt.withDefaults()
	rep := &SuiteReport{}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		cold, err := forkCold(ctx, name, opt)
		if err != nil {
			return rep, fmt.Errorf("audit: %s (cold): %w", name, err)
		}
		forked, err := forkForked(ctx, name, opt)
		if err != nil {
			return rep, fmt.Errorf("audit: %s (forked): %w", name, err)
		}
		rep.Workloads++
		rep.Runs += 2
		cj, err := json.Marshal(cold)
		if err != nil {
			return rep, err
		}
		fj, err := json.Marshal(forked)
		if err != nil {
			return rep, err
		}
		if string(cj) != string(fj) {
			rep.Divergences = append(rep.Divergences, diffResults(name, cold, forked)...)
		}
	}
	return rep, nil
}

// diffResults names what diverged between a cold and a forked run,
// reusing the field-level comparisons of DiffOutcomes where they apply
// and falling back to the raw JSON.
func diffResults(name string, cold, forked *sim.Result) []string {
	var diffs []string
	add := func(format string, args ...any) {
		if len(diffs) < maxDiffs {
			diffs = append(diffs, fmt.Sprintf("%s: cold vs forked: %s", name, fmt.Sprintf(format, args...)))
		}
	}
	for i := range cold.CyclesPerCore {
		if cold.CyclesPerCore[i] != forked.CyclesPerCore[i] {
			add("core %d measured %d cycles vs %d", i, cold.CyclesPerCore[i], forked.CyclesPerCore[i])
		}
	}
	for i := range cold.L1D {
		if cold.L1D[i].Miss != forked.L1D[i].Miss {
			add("core %d L1D misses %v vs %v", i, cold.L1D[i].Miss, forked.L1D[i].Miss)
		}
	}
	if cold.LLC.Miss != forked.LLC.Miss {
		add("LLC misses %v vs %v", cold.LLC.Miss, forked.LLC.Miss)
	}
	if len(diffs) == 0 {
		// The headline counters agree but some other field differs;
		// point at the JSON so the divergence is never silent.
		cj, _ := json.Marshal(cold)
		fj, _ := json.Marshal(forked)
		add("results differ outside headline counters:\ncold:   %s\nforked: %s", cj, fj)
	}
	return diffs
}
