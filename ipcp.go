// Package ipcp is the public facade of the IPCP reproduction: a
// trace-driven cache-hierarchy simulator with the paper's Instruction
// Pointer Classifier-based spatial Prefetcher (Pakalapati & Panda,
// ISCA 2020), the baseline prefetchers it is evaluated against, and
// synthetic workloads standing in for the paper's trace suites.
//
// Quickstart:
//
//	res, err := ipcp.Run(ipcp.RunConfig{
//		Workload:      "gcc-2226",
//		L1DPrefetcher: "ipcp",
//		L2Prefetcher:  "ipcp",
//	})
//
// The heavy lifting lives in the internal packages; this package
// re-exports the stable surface a downstream user needs: running
// simulations, enumerating workloads and prefetchers, constructing
// custom-configured IPCP instances, and the Table I storage budget.
package ipcp

import (
	"context"
	"fmt"

	"ipcp/internal/audit"
	"ipcp/internal/core"
	"ipcp/internal/experiments"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
	"ipcp/internal/workload"
)

// Result is a simulation outcome (per-core IPC, per-level cache
// statistics, DRAM statistics).
type Result = sim.Result

// EngineStats is the scheduler's self-profile carried on Result.Engine:
// cycles stepped versus jumped and, per kind of component in the
// scheduler's visit order (DRAM, LLC, L2, L1D, L1I, core), how often it
// was clocked, skipped, and the one keeping the machine awake.
type EngineStats = sim.EngineStats

// L1Config and L2Config parametrize IPCP at the two levels.
type L1Config = core.L1Config

// L2Config parametrizes the L2 IPCP.
type L2Config = core.L2Config

// DefaultL1Config returns the paper's L1 IPCP configuration.
func DefaultL1Config() L1Config { return core.DefaultL1Config() }

// DefaultL2Config returns the paper's L2 IPCP configuration.
func DefaultL2Config() L2Config { return core.DefaultL2Config() }

// Storage is the Table I hardware budget.
type Storage = core.Storage

// StorageBudget computes the Table I budget for the given configs.
func StorageBudget(l1 L1Config, l2 L2Config) Storage {
	return core.ComputeStorage(l1, l2)
}

// Prefetcher is the hardware-prefetcher interface; custom prefetchers
// implement it and plug into any cache level.
type Prefetcher = prefetch.Prefetcher

// NewL1IPCP constructs the paper's L1-D bouquet prefetcher.
func NewL1IPCP(cfg L1Config) Prefetcher { return core.NewL1IPCP(cfg) }

// NewL2IPCP constructs the metadata-driven L2 IPCP.
func NewL2IPCP(cfg L2Config) Prefetcher { return core.NewL2IPCP(cfg) }

// Prefetchers lists the registered prefetcher names usable in
// RunConfig ("none", "nl", "ipstride", "spp", "bingo", "ipcp", ...).
func Prefetchers() []string { return prefetch.Names() }

// Workloads lists the registered synthetic workload names.
func Workloads() []string { return workload.Names(workload.All()) }

// MemoryIntensiveWorkloads lists the stand-ins for the paper's 46
// LLC-MPKI ≥ 1 SPEC traces.
func MemoryIntensiveWorkloads() []string {
	return workload.Names(workload.MemoryIntensive())
}

// RunConfig describes one simulation run through the facade.
type RunConfig struct {
	// Workload names the trace for single-core runs; Mix supplies one
	// workload per core for multi-core runs (Workload is ignored when
	// Mix is set).
	Workload string
	Mix      []string

	// Prefetcher names per level ("" = none). See Prefetchers().
	L1DPrefetcher string
	L2Prefetcher  string
	LLCPrefetcher string

	// CustomL1D plugs an explicit prefetcher instance into the L1-D
	// (overrides L1DPrefetcher) — the hook for user-written
	// prefetchers and configured IPCP variants. One instance serves one
	// core, so it is refused on a multi-core Mix.
	CustomL1D Prefetcher

	// Warmup and Measure are per-core instruction budgets; zero values
	// default to 50k / 200k.
	Warmup, Measure uint64

	// Seed drives workload randomness and page allocation.
	Seed int64

	// Tracer, when non-nil, records structured telemetry events
	// (prefetch lifecycle, class transitions, throttle decisions) for
	// the measured phase. Nil keeps the hot path allocation-free.
	Tracer *Tracer

	// Intervals, when non-nil, receives one metrics Sample every
	// Intervals.Every cycles of the measured phase.
	Intervals *IntervalLog

	// Audit, when non-nil, attaches the differential audit harness: a
	// functional shadow model of every cache and a straight-from-the-
	// paper reference oracle running in lockstep with each IPCP
	// instance. Invariant violations and reference divergences
	// accumulate on the checker; RunContext finalizes it, so
	// Audit.Err() is ready as soon as the run returns. Auditing slows
	// the simulation severalfold — leave nil for performance runs.
	Audit *AuditChecker
}

// Run builds and runs one simulation.
func Run(rc RunConfig) (*Result, error) {
	return RunContext(context.Background(), rc)
}

// RunContext is Run with cooperative cancellation: the simulation's
// cycle loop polls ctx every few thousand cycles, so a cancelled or
// timed-out context stops the run promptly with ctx's error. Telemetry
// collected up to that point (Tracer events, Intervals samples) remains
// readable — an interrupted run still flushes what it observed.
func RunContext(ctx context.Context, rc RunConfig) (*Result, error) {
	mix := rc.Mix
	if len(mix) == 0 {
		if rc.Workload == "" {
			return nil, fmt.Errorf("ipcp: RunConfig needs a Workload or a Mix")
		}
		mix = []string{rc.Workload}
	}
	if rc.CustomL1D != nil && len(mix) > 1 {
		return nil, fmt.Errorf("ipcp: RunConfig.CustomL1D is one prefetcher instance, so it cannot serve a %d-core Mix", len(mix))
	}
	seed := rc.Seed
	if seed == 0 {
		seed = 1
	}
	// The same RunSpec an ipcpd POST /v1/runs body decodes to, built by
	// the same code.
	spec := experiments.RunSpec{Workloads: mix, L1D: rc.L1DPrefetcher, L2: rc.L2Prefetcher, LLC: rc.LLCPrefetcher}
	streams, err := spec.Streams(seed)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config(seed)
	if rc.CustomL1D != nil {
		p := rc.CustomL1D
		cfg.L1DPrefetcher = sim.PrefetcherSpec{New: func() (Prefetcher, error) { return p, nil }}
	}
	if rc.Audit != nil {
		cfg.Audit = rc.Audit
	}
	sys, err := sim.Build(cfg, streams)
	if err != nil {
		return nil, err
	}
	if rc.Tracer != nil {
		sys.SetTracer(rc.Tracer)
	}
	if rc.Intervals != nil {
		sys.SetIntervalLog(rc.Intervals)
	}
	warm, meas := rc.Warmup, rc.Measure
	if warm == 0 {
		warm = 50_000
	}
	if meas == 0 {
		meas = 200_000
	}
	res, err := sys.RunContext(ctx, warm, meas)
	if rc.Audit != nil {
		rc.Audit.Finish()
	}
	sys.Release()
	return res, err
}

// PrefetcherFault is a fail-safe trip recorded in Result: a guarded
// prefetcher panicked or violated its budget, was disabled for the rest
// of the run, and the simulation continued unprefetched at that level.
type PrefetcherFault = sim.PrefetcherFault

// Speedup runs a workload with and without the given prefetcher
// configuration and returns IPC_with/IPC_without.
func Speedup(workloadName, l1d, l2 string, warmup, measure uint64) (float64, error) {
	base, err := Run(RunConfig{Workload: workloadName, Warmup: warmup, Measure: measure})
	if err != nil {
		return 0, err
	}
	pf, err := Run(RunConfig{
		Workload: workloadName, L1DPrefetcher: l1d, L2Prefetcher: l2,
		Warmup: warmup, Measure: measure,
	})
	if err != nil {
		return 0, err
	}
	if base.IPC[0] == 0 {
		return 0, fmt.Errorf("ipcp: baseline IPC is zero")
	}
	return pf.IPC[0] / base.IPC[0], nil
}

// Telemetry surface, re-exported for observability tooling. A Tracer
// records structured events into a bounded ring buffer (exportable as
// JSONL or Chrome trace_event JSON); an IntervalLog collects the
// per-epoch metrics timeline; an IPCPSnapshot is the per-class
// introspection state attached to Result.
type (
	Tracer         = telemetry.Tracer
	TraceEvent     = telemetry.Event
	IntervalLog    = telemetry.IntervalLog
	IntervalSample = telemetry.Sample
	IPCPSnapshot   = telemetry.Snapshot
)

// NewTracer returns an event tracer retaining up to capacity events
// (<= 0 selects the default capacity).
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// NewIntervalLog returns an interval-metrics log sampled every `every`
// cycles (<= 0 selects the default period).
func NewIntervalLog(every int64) *IntervalLog { return telemetry.NewIntervalLog(every) }

// Audit surface, re-exported for correctness tooling. An AuditChecker
// cross-checks a run against slow-but-obviously-correct reference
// models (functional shadow caches, paper-faithful IPCP oracles) and
// runtime invariants (page-boundary clamp, throttle ceilings, RR-filter
// dedup, request-pool ownership); an AuditViolation is one failed
// check.
type (
	AuditChecker   = audit.Checker
	AuditViolation = audit.Violation
)

// NewAuditChecker returns an audit harness for RunConfig.Audit.
func NewAuditChecker() *AuditChecker { return audit.New() }

// Class identifiers, re-exported for metadata-aware tooling.
const (
	ClassNone = memsys.ClassNone
	ClassCS   = memsys.ClassCS
	ClassCPLX = memsys.ClassCPLX
	ClassGS   = memsys.ClassGS
	ClassNL   = memsys.ClassNL
)
