package sim

import (
	"fmt"

	"ipcp/internal/cache"
	"ipcp/internal/cpu"
	"ipcp/internal/dram"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// PrefetcherSpec selects the prefetcher for one cache level: either a
// registered name, or an explicit constructor (which wins when both are
// set). The zero value means "no prefetching". A constructor error
// aborts the build cleanly instead of crashing the worker that called
// it.
type PrefetcherSpec struct {
	Name string
	New  func() (prefetch.Prefetcher, error)
}

func (s PrefetcherSpec) build(level memsys.Level) (prefetch.Prefetcher, error) {
	if s.New != nil {
		return s.New()
	}
	return prefetch.New(s.Name, level)
}

// String names the spec for reports.
func (s PrefetcherSpec) String() string {
	if s.New != nil {
		p, err := s.New()
		if err != nil {
			return fmt.Sprintf("error(%v)", err)
		}
		return p.Name()
	}
	if s.Name == "" {
		return "none"
	}
	return s.Name
}

// Config describes a whole simulated system.
type Config struct {
	Cores int
	Core  cpu.Config

	L1I, L1D, L2, LLC cache.Config
	DRAM              dram.Config

	// Prefetchers per level. Each private level gets one instance per
	// core; the LLC gets a single shared instance. Every attached
	// prefetcher runs inside the fail-safe prefetch.Guard: a panicking or
	// budget-violating prefetcher is disabled for the rest of the run
	// (recorded in Result.PrefetcherFaults) and the simulation continues
	// unprefetched, mirroring hardware fail-safety.
	L1DPrefetcher PrefetcherSpec
	L2Prefetcher  PrefetcherSpec
	LLCPrefetcher PrefetcherSpec

	// Seed drives physical page allocation.
	Seed int64

	// CacheWarmOnly selects the shared-warmup methodology: Build leaves
	// every prefetcher detached (the no-op Nil), so the warmup phase
	// warms caches, TLBs and branch predictors only, making the
	// post-warmup architectural state independent of the prefetcher
	// configuration. The warmup phase then ends with a drain to
	// quiescence and AttachPrefetchers installs the configured
	// prefetchers cold at the measure boundary. This is what lets one
	// warmup be snapshotted once and forked across every sweep point
	// that differs only in prefetchers. Off (the default), Build attaches
	// the prefetchers, warmup trains them too, and the measure phase
	// follows the warmup without a drain.
	CacheWarmOnly bool

	// DisableFastForward forces the scheduler to clock every component
	// on every cycle instead of only those whose wake time has come
	// (and jumping over cycles on which none has). The two modes
	// produce bit-identical results (the determinism suite holds them
	// to that); the reference mode exists for that comparison and for
	// debugging the scheduler itself.
	DisableFastForward bool

	// Audit, when non-nil, is attached to the freshly built system and
	// installs the runtime reference models and invariant checks of
	// internal/audit (in the spirit of -race: heavy, exact, opt-in).
	// Nil — the default — leaves every hot path on its allocation-free
	// fast paths.
	Audit Auditor
}

// Auditor is the hook Config.Audit plugs into Build: once the system is
// fully wired (prefetchers guarded, request pool shared), Attach may
// wrap prefetchers, attach cache auditors, and enable request-pool
// auditing. Implemented by internal/audit.Checker; defined here so sim
// does not import the audit machinery it hosts.
type Auditor interface {
	Attach(sys *System)
}

// PaperConfig returns the simulated system of the paper's Table II for
// the given core count: 4 GHz 4-wide cores with 256-entry ROBs, 32KB
// L1-I, 48KB L1-D (PQ 8, MSHR 16, 2 ports), 512KB L2 (PQ 16, MSHR 32),
// a shared 2MB/core LLC, and DDR4-1600 with one channel per single-core
// run or two channels for multi-core.
func PaperConfig(cores int) Config {
	channels := 1
	if cores > 1 {
		channels = 2
	}
	llcPorts := cores
	if llcPorts < 2 {
		llcPorts = 2
	}
	return Config{
		Cores: cores,
		Core:  cpu.DefaultConfig(),
		L1I: cache.Config{
			Name: "L1I", Level: memsys.LevelL1I,
			Sets: 64, Ways: 8, Latency: 3, Ports: 4,
			RQSize: 16, WQSize: 16, PQSize: 8, MSHRs: 8,
		},
		L1D: cache.Config{
			Name: "L1D", Level: memsys.LevelL1D,
			Sets: 64, Ways: 12, Latency: 5, Ports: 2,
			RQSize: 64, WQSize: 64, PQSize: 8, MSHRs: 16,
		},
		L2: cache.Config{
			Name: "L2", Level: memsys.LevelL2,
			Sets: 1024, Ways: 8, Latency: 10, Ports: 2,
			RQSize: 32, WQSize: 32, PQSize: 16, MSHRs: 32,
		},
		LLC: cache.Config{
			Name: "LLC", Level: memsys.LevelLLC,
			Sets: 2048 * cores, Ways: 16, Latency: 20, Ports: llcPorts,
			RQSize: 32 * cores, WQSize: 32 * cores,
			PQSize: 32 * cores, MSHRs: 64 * cores,
		},
		DRAM: dram.DefaultConfig(channels),
		Seed: 1,
	}
}

// Validate reports a configuration Build would refuse, without building
// it (experiments.RunSpec.Validate runs it on a request's config).
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: core count must be positive, got %d", c.Cores)
	}
	if c.LLC.Sets&(c.LLC.Sets-1) != 0 {
		return fmt.Errorf("sim: LLC sets (%d) must be a power of two; "+
			"PaperConfig requires a power-of-two core count", c.LLC.Sets)
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2, c.LLC} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.CacheWarmOnly && c.Audit != nil {
		return fmt.Errorf("sim: CacheWarmOnly and Audit are mutually exclusive " +
			"(the audit oracles attach to prefetchers at build time)")
	}
	return nil
}
