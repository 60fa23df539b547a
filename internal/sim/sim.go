// Package sim assembles cores, caches, DRAM and prefetchers into a
// runnable system, runs warmup + measurement phases, and reports IPC
// and hierarchy statistics. It is the layer the experiment harness and
// the public facade drive.
package sim

import (
	"context"
	"fmt"
	"math"

	"ipcp/internal/cache"
	"ipcp/internal/cpu"
	"ipcp/internal/dram"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/telemetry"
	"ipcp/internal/trace"
	"ipcp/internal/vmem"
)

// System is one assembled simulation.
type System struct {
	cfg Config

	cores []*cpu.Core
	l1is  []*cache.Cache
	l1ds  []*cache.Cache
	l2s   []*cache.Cache
	llc   *cache.Cache
	mem   *dram.Controller

	cycle int64

	// slots lists every clocked component in the order step visits
	// them and wake holds their wake times in the same order; engine is
	// the scheduler's self-profile (see engine.go).
	slots  []slot
	wake   []int64
	engine EngineStats

	// pool is the system-wide request free list Build wired into every
	// component.
	pool *memsys.RequestPool

	// alloc is the shared physical-page allocator (captured and replayed
	// by the snapshot machinery).
	alloc *vmem.PhysAllocator

	// pfAttached records that AttachPrefetchers already ran (the
	// CacheWarmOnly measure boundary is one-shot).
	pfAttached bool

	// guards are the fail-safe wrappers Build placed around the
	// attached prefetchers (empty when cfg.DisableGuard).
	guards []guardRef

	// Telemetry (all nil/false when disabled — the step fast path
	// pays one branch).
	tracer     *telemetry.Tracer
	ilog       *telemetry.IntervalLog
	sampling   bool
	lastSample int64
	prevCum    intervalCum
}

// Result reports one run's measured statistics.
type Result struct {
	Cores        int
	Instructions uint64 // measured instructions per core

	// CyclesPerCore is each core's measured cycle count (finish −
	// measurement start).
	CyclesPerCore []int64
	IPC           []float64

	CoreStats    []cpu.Stats
	L1I, L1D, L2 []cache.Stats
	LLC          cache.Stats
	DRAM         dram.Stats

	// IPCPL1 and IPCPL2 hold per-core introspection snapshots of the
	// L1-D and L2 prefetchers; an entry is nil when that core's
	// prefetcher does not implement telemetry.Introspector.
	IPCPL1 []*telemetry.Snapshot
	IPCPL2 []*telemetry.Snapshot

	// PrefetcherFaults lists guarded prefetchers that were disabled
	// mid-run (panic or budget violation). Empty on a healthy run.
	PrefetcherFaults []PrefetcherFault `json:",omitempty"`

	// Engine is the scheduler's self-profile over the measured phase.
	// It describes how the simulator ran, not what it simulated, so it
	// is kept out of the serialized result (JSON output, checkpoints and
	// result digests are the same with or without it).
	Engine EngineStats `json:"-"`
}

// PrefetcherFault records one guarded prefetcher's fail-safe trip: the
// prefetcher was disabled for the rest of the run and the simulation
// continued unprefetched at that level.
type PrefetcherFault struct {
	Core   int    `json:"core"` // -1 for the shared LLC
	Level  string `json:"level"`
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

// guardRef ties a guard to the core it serves (-1 for the LLC).
type guardRef struct {
	g    *prefetch.Guard
	core int
}

// MPKI returns core i's demand misses per kilo instruction at the given
// level ("L1I", "L1D", "L2", "LLC"). For the shared LLC the misses are
// the whole system's, divided by the per-core instruction count times
// the core count. An unknown level returns NaN — loud in any downstream
// arithmetic instead of silently biasing it toward zero.
func (r *Result) MPKI(level string, core int) float64 {
	instr := float64(r.Instructions)
	switch level {
	case "L1I":
		return float64(r.L1I[core].DemandMisses()) * 1000 / instr
	case "L1D":
		return float64(r.L1D[core].DemandMisses()) * 1000 / instr
	case "L2":
		return float64(r.L2[core].DemandMisses()) * 1000 / instr
	case "LLC":
		return float64(r.LLC.DemandMisses()) * 1000 / (instr * float64(r.Cores))
	default:
		return math.NaN()
	}
}

// TotalDemandMisses sums demand misses across cores for a private level
// or returns the shared LLC's.
func (r *Result) TotalDemandMisses(level string) uint64 {
	var t uint64
	switch level {
	case "L1D":
		for i := range r.L1D {
			t += r.L1D[i].DemandMisses()
		}
	case "L2":
		for i := range r.L2 {
			t += r.L2[i].DemandMisses()
		}
	case "LLC":
		t = r.LLC.DemandMisses()
	}
	return t
}

// Build wires a system from cfg, one trace stream per core.
func Build(cfg Config, streams []trace.Stream) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d cores but %d streams", cfg.Cores, len(streams))
	}

	s := &System{cfg: cfg}

	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	s.mem = mem

	llcCfg := cfg.LLC
	llc, err := cache.New(llcCfg)
	if err != nil {
		return nil, err
	}
	llc.SetLower(mem)
	if !cfg.CacheWarmOnly {
		llcPf, err := cfg.LLCPrefetcher.build(memsys.LevelLLC)
		if err != nil {
			return nil, err
		}
		llc.SetPrefetcher(s.guardPf(llcPf, memsys.LevelLLC, -1))
	}
	s.llc = llc

	alloc := vmem.NewPhysAllocator(cfg.Seed)
	s.alloc = alloc

	for i := 0; i < cfg.Cores; i++ {
		l2Cfg := cfg.L2
		l2Cfg.Name = fmt.Sprintf("L2.%d", i)
		l2, err := cache.New(l2Cfg)
		if err != nil {
			return nil, err
		}
		l2.SetLower(llc)
		if !cfg.CacheWarmOnly {
			l2Pf, err := cfg.L2Prefetcher.build(memsys.LevelL2)
			if err != nil {
				return nil, err
			}
			l2.SetPrefetcher(s.guardPf(l2Pf, memsys.LevelL2, i))
		}

		l1dCfg := cfg.L1D
		l1dCfg.Name = fmt.Sprintf("L1D.%d", i)
		l1d, err := cache.New(l1dCfg)
		if err != nil {
			return nil, err
		}
		l1d.SetLower(l2)
		if !cfg.CacheWarmOnly {
			l1dPf, err := cfg.L1DPrefetcher.build(memsys.LevelL1D)
			if err != nil {
				return nil, err
			}
			l1d.SetPrefetcher(s.guardPf(l1dPf, memsys.LevelL1D, i))
		}

		l1iCfg := cfg.L1I
		l1iCfg.Name = fmt.Sprintf("L1I.%d", i)
		l1i, err := cache.New(l1iCfg)
		if err != nil {
			return nil, err
		}
		l1i.SetLower(l2)
		if !cfg.CacheWarmOnly {
			l1iPf, err := cfg.L1IPrefetcher.build(memsys.LevelL1I)
			if err != nil {
				return nil, err
			}
			l1i.SetPrefetcher(s.guardPf(l1iPf, memsys.LevelL1I, i))
		}

		core, err := cpu.New(i, cfg.Core, streams[i], alloc)
		if err != nil {
			return nil, err
		}
		core.Attach(l1d, l1i)
		// The L1-D prefetcher computes virtual prefetch addresses;
		// translate through the core's page table without allocating.
		l1d.SetTranslator(core.PageTable().TranslateExisting)

		s.cores = append(s.cores, core)
		s.l1ds = append(s.l1ds, l1d)
		s.l1is = append(s.l1is, l1i)
		s.l2s = append(s.l2s, l2)
	}

	// One request free list per system (stepping is single-threaded
	// within a system).
	pool := memsys.NewRequestPool()
	s.pool = pool
	s.mem.SetRequestPool(pool)
	s.llc.SetRequestPool(pool)
	for i := range s.cores {
		s.cores[i].SetRequestPool(pool)
		s.l1ds[i].SetRequestPool(pool)
		s.l1is[i].SetRequestPool(pool)
		s.l2s[i].SetRequestPool(pool)
	}
	s.slots = append(s.slots, slot{kind: KindDRAM}, slot{kind: KindLLC, cache: s.llc})
	for i := range s.cores {
		s.slots = append(s.slots,
			slot{kind: KindL2, cache: s.l2s[i]},
			slot{kind: KindL1D, cache: s.l1ds[i]},
			slot{kind: KindL1I, cache: s.l1is[i]},
			slot{kind: KindCore, core: s.cores[i]})
	}
	if err := s.checkVisitOrder(); err != nil {
		return nil, err
	}
	s.wake = make([]int64, len(s.slots))
	for i, sl := range s.slots {
		s.component(sl).Bind(&s.wake[i], &s.cycle)
	}
	if cfg.Audit != nil {
		cfg.Audit.Attach(s)
	}
	return s, nil
}

// Release hands the system's big arrays — every cache's lines and LRU
// stamps, nine tenths of what Build allocates — back to the free lists
// Build draws from, so the next build of the same geometry reuses them
// instead of allocating (and the collector runs that much less often).
// The system must never be used again; Results and Snapshots taken from
// it are deep copies and stay valid.
//
// Only the goroutine that stepped the system may call Release, after
// its last RunContext / RunWarmup / RunMeasure / Snapshot has returned:
// it alone knows nothing is still reading the arrays. A run abandoned
// after cancellation (experiments.runSlot, the daemon's watchdog) is
// never released by whoever gave up on it — if its goroutine ever
// unwinds it releases itself, and until then it keeps arrays nobody
// else can be handed.
func (s *System) Release() {
	s.llc.Release()
	for i := range s.cores {
		s.l2s[i].Release()
		s.l1ds[i].Release()
		s.l1is[i].Release()
	}
}

// guardPf wraps a prefetcher in the fail-safe Guard unless guarding is
// disabled or the prefetcher is the no-op (whose Nil type the cache's
// fast path keys on).
func (s *System) guardPf(p prefetch.Prefetcher, level memsys.Level, core int) prefetch.Prefetcher {
	if s.cfg.DisableGuard {
		return p
	}
	if _, isNil := p.(prefetch.Nil); isNil {
		return p
	}
	g := prefetch.NewGuard(p, level)
	s.guards = append(s.guards, guardRef{g: g, core: core})
	return g
}

// PrefetcherFaults reports the guards that have tripped so far.
func (s *System) PrefetcherFaults() []PrefetcherFault {
	var out []PrefetcherFault
	for _, ref := range s.guards {
		if disabled, reason := ref.g.Disabled(); disabled {
			out = append(out, PrefetcherFault{
				Core:   ref.core,
				Level:  ref.g.Level().String(),
				Name:   ref.g.Name(),
				Reason: reason,
			})
		}
	}
	return out
}

// L1D exposes core i's L1-D cache (tests and experiments).
func (s *System) L1D(i int) *cache.Cache { return s.l1ds[i] }

// L2 exposes core i's L2 cache.
func (s *System) L2(i int) *cache.Cache { return s.l2s[i] }

// LLC exposes the shared LLC.
func (s *System) LLC() *cache.Cache { return s.llc }

// DRAM exposes the memory controller.
func (s *System) DRAM() *dram.Controller { return s.mem }

// Core exposes core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// L1I exposes core i's L1-I cache.
func (s *System) L1I(i int) *cache.Cache { return s.l1is[i] }

// Cores returns the configured core count.
func (s *System) Cores() int { return s.cfg.Cores }

// RequestPool exposes the system-wide request free list (audit/testing).
func (s *System) RequestPool() *memsys.RequestPool { return s.pool }

// Cycle reports the current simulated cycle.
func (s *System) CurrentCycle() int64 { return s.cycle }

// SetTracer attaches an event tracer to every cache and every
// telemetry-aware prefetcher in the system (nil detaches). The trace
// spans warmup and measurement; an EvPhase marker is emitted at the
// warmup boundary so tools can clip to the measured phase.
func (s *System) SetTracer(tr *telemetry.Tracer) {
	s.tracer = tr
	for i := range s.cores {
		s.l1ds[i].SetTracer(tr, i)
		s.l1is[i].SetTracer(tr, i)
		s.l2s[i].SetTracer(tr, i)
		if t, ok := s.l1ds[i].Prefetcher().(telemetry.Traceable); ok {
			t.SetTracer(tr, i)
		}
		if t, ok := s.l2s[i].Prefetcher().(telemetry.Traceable); ok {
			t.SetTracer(tr, i)
		}
	}
	s.llc.SetTracer(tr, -1)
	if t, ok := s.llc.Prefetcher().(telemetry.Traceable); ok {
		t.SetTracer(tr, -1)
	}
}

// SetIntervalLog attaches an interval-metrics log; every log.Every
// cycles of the measured phase, one Sample is recorded. Nil detaches.
func (s *System) SetIntervalLog(log *telemetry.IntervalLog) {
	s.ilog = log
	s.sampling = false
}

// intervalCum is the cumulative-counter snapshot interval deltas are
// computed against.
type intervalCum struct {
	retired                         uint64
	l1dMiss, l2Miss, llcMiss        uint64
	dramBytes, dramBusy, dramCycles uint64

	classIssued [memsys.NumClasses]uint64
	classFills  [memsys.NumClasses]uint64
	classUseful [memsys.NumClasses]uint64
}

// snapshotCum reads the system's cumulative counters.
func (s *System) snapshotCum() intervalCum {
	var c intervalCum
	for i := range s.cores {
		c.retired += s.cores[i].Stats.Retired
		c.l1dMiss += s.l1ds[i].Stats.DemandMisses()
		c.l2Miss += s.l2s[i].Stats.DemandMisses()
		if in, ok := introspector(s.l1ds[i].Prefetcher()); ok {
			snap := in.TelemetrySnapshot()
			for cls := 0; cls < memsys.NumClasses; cls++ {
				c.classIssued[cls] += snap.Classes[cls].Issued
				c.classFills[cls] += snap.Classes[cls].Fills
				c.classUseful[cls] += snap.Classes[cls].Useful
			}
		}
	}
	c.llcMiss = s.llc.Stats.DemandMisses()
	c.dramBytes = s.mem.Stats.BytesTransferred()
	c.dramBusy = s.mem.Stats.BusBusyCycles
	c.dramCycles = s.mem.Stats.Cycles
	return c
}

// flushInterval closes the open interval at the current cycle and
// records its sample.
func (s *System) flushInterval() {
	if s.cycle == s.lastSample {
		return
	}
	s.settle()
	cur := s.snapshotCum()
	prev := s.prevCum
	cycles := s.cycle - s.lastSample

	sm := telemetry.Sample{
		StartCycle:   s.lastSample,
		EndCycle:     s.cycle,
		Instructions: cur.retired - prev.retired,
	}
	// IPC is the per-core average over the interval.
	sm.IPC = float64(sm.Instructions) / float64(cycles) / float64(s.cfg.Cores)
	if sm.Instructions > 0 {
		ki := float64(sm.Instructions) / 1000
		sm.L1DMPKI = float64(cur.l1dMiss-prev.l1dMiss) / ki
		sm.L2MPKI = float64(cur.l2Miss-prev.l2Miss) / ki
		sm.LLCMPKI = float64(cur.llcMiss-prev.llcMiss) / ki
	}
	// The raw miss deltas are recorded unconditionally: a zero-retire
	// interval (a fast-forwarded fully stalled span) can still complete
	// in-flight L2/LLC misses and move DRAM data, and the baseline
	// below always advances past them — misses reported only through
	// the instruction-gated MPKI columns would silently vanish from the
	// timeline, breaking deltas-sum-to-totals (pinned by
	// TestIntervalDeltasSumAcrossZeroRetire).
	sm.L1DMisses = cur.l1dMiss - prev.l1dMiss
	sm.L2Misses = cur.l2Miss - prev.l2Miss
	sm.LLCMisses = cur.llcMiss - prev.llcMiss
	sm.DRAMBytes = cur.dramBytes - prev.dramBytes
	if dc := cur.dramCycles - prev.dramCycles; dc > 0 {
		sm.DRAMBusUtil = float64(cur.dramBusy-prev.dramBusy) / float64(dc)
	}
	for cls := 0; cls < memsys.NumClasses; cls++ {
		sm.Classes[cls] = telemetry.ClassSample{
			Issued: cur.classIssued[cls] - prev.classIssued[cls],
			Fills:  cur.classFills[cls] - prev.classFills[cls],
			Useful: cur.classUseful[cls] - prev.classUseful[cls],
		}
	}
	// Degree/accuracy are end-of-interval state, averaged across every
	// introspectable core — an explicit aggregate, not core 0's state
	// attributed to the whole system. A single-core run reports core
	// 0's values exactly (the mean of one is the value itself).
	var snaps []telemetry.Snapshot
	for i := range s.l1ds {
		if in, ok := introspector(s.l1ds[i].Prefetcher()); ok {
			snaps = append(snaps, in.TelemetrySnapshot())
		}
	}
	applyClassState(&sm, snaps)
	s.ilog.Record(sm)
	// The delta baseline advances unconditionally — gating it on
	// interval activity would leave it stale across an idle interval
	// and double-count that interval's counters into the next sample.
	s.prevCum = cur
	s.lastSample = s.cycle
}

// applyClassState fills sm's per-class Degree/Accuracy with the mean
// of the given end-of-interval prefetcher snapshots (integer degrees
// round to nearest). No snapshots leaves the zero values in place.
func applyClassState(sm *telemetry.Sample, snaps []telemetry.Snapshot) {
	n := len(snaps)
	if n == 0 {
		return
	}
	for cls := 0; cls < memsys.NumClasses; cls++ {
		var deg int
		var acc float64
		for i := range snaps {
			deg += snaps[i].Classes[cls].Degree
			acc += snaps[i].Classes[cls].Accuracy
		}
		sm.Classes[cls].Degree = (deg + n/2) / n
		sm.Classes[cls].Accuracy = acc / float64(n)
	}
}

// resetStats zeroes every component's counters at the warmup boundary,
// including prefetcher observation counters, so everything reported
// afterwards — aggregates, trace events, interval samples — covers the
// measured phase only.
func (s *System) resetStats() {
	for i := range s.cores {
		s.cores[i].ResetStats()
		s.l1ds[i].ResetStats()
		s.l1is[i].ResetStats()
		s.l2s[i].ResetStats()
		for _, c := range []*cache.Cache{s.l1ds[i], s.l1is[i], s.l2s[i]} {
			if rp, ok := c.Prefetcher().(telemetry.StatsResetter); ok {
				rp.ResetStats()
			}
		}
	}
	s.llc.ResetStats()
	if rp, ok := s.llc.Prefetcher().(telemetry.StatsResetter); ok {
		rp.ResetStats()
	}
	s.mem.ResetStats()
	s.engine = EngineStats{}

	// The trace deliberately spans the whole run — classification and
	// training happen during warmup, and every event is cycle-stamped —
	// so mark the boundary instead of clearing the ring. Intervals and
	// counters below remain measured-phase only.
	if s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Cycle: s.cycle, Kind: telemetry.EvPhase, Core: -1, New: 1,
		})
	}
	if s.ilog != nil {
		s.sampling = true
		s.lastSample = s.cycle
		s.prevCum = s.snapshotCum()
	}
}

// Run executes warmup instructions per core (stats discarded), then
// measures until every core has retired measure further instructions.
// Cores that finish early keep executing (contending for shared
// resources) until the last core finishes, as in the paper's
// methodology.
func (s *System) Run(warmup, measure uint64) (*Result, error) {
	return s.RunContext(context.Background(), warmup, measure)
}

// cancelCheckInterval sets how often the simulation loop polls the
// context: at most once per 4096 advanced cycles — about a microsecond
// of simulated time, and cheap enough (one predictable branch plus an
// atomic load) to be invisible in the cycle loop's profile. A threshold
// rather than a cycle-number mask: fast-forward jumps land on arbitrary
// cycle numbers, and a mask test could miss every one of them.
const cancelCheckInterval = 4096

// RunContext is Run with cooperative cancellation: the cycle loop
// checks ctx every few thousand cycles and returns ctx's error when it
// is cancelled, after closing any open interval-metrics sample so
// flushed telemetry stays consistent.
//
// RunContext is also the simulator's serving-side observability seam:
// a telemetry.ProgressFunc in ctx receives phase/retired/target reports
// at the cancellation-check cadence, and a telemetry.SpanTracer in ctx
// gets one span per phase (sim.warmup, sim.measure). Both ride the
// existing per-few-thousand-cycles branch, so a context carrying
// neither costs the cycle loop nothing.
//
// Every run is the same two phases RunWarmup and RunMeasure drive; a
// CacheWarmOnly system drains at the end of its warmup and attaches its
// prefetchers at the measure boundary, so cold and forked runs execute
// identical code from there on. Warmup and measurement share one cycle
// budget and one cancellation cadence (a fast-forward-heavy warmup must
// not eat the measure phase's error margin twice).
func (s *System) RunContext(ctx context.Context, warmup, measure uint64) (*Result, error) {
	ctl := s.newLoopCtl(warmup + measure)
	if err := s.warmupPhase(ctx, warmup, ctl); err != nil {
		return nil, err
	}
	if s.cfg.CacheWarmOnly {
		if err := s.AttachPrefetchers(); err != nil {
			return nil, err
		}
	}
	return s.measurePhase(ctx, measure, ctl)
}

// snapshotOf returns the cache's prefetcher introspection snapshot, or
// nil when the prefetcher exposes none.
func snapshotOf(c *cache.Cache) *telemetry.Snapshot {
	if in, ok := introspector(c.Prefetcher()); ok {
		s := in.TelemetrySnapshot()
		return &s
	}
	return nil
}

// introspector unwraps any Guard layer before probing for the
// introspection interface: the guard must not make a snapshot-less
// prefetcher look like it has one.
func introspector(p prefetch.Prefetcher) (telemetry.Introspector, bool) {
	in, ok := prefetch.Unwrapped(p).(telemetry.Introspector)
	return in, ok
}

func (s *System) allRetired(n uint64) bool {
	for _, c := range s.cores {
		if c.Retired() < n {
			return false
		}
	}
	return true
}

// minRetired is the slowest core's retired-instruction count — the
// number that gates phase completion, and therefore the honest
// "progress so far" figure.
func (s *System) minRetired() uint64 {
	min := uint64(math.MaxUint64)
	for _, c := range s.cores {
		if r := c.Retired(); r < min {
			min = r
		}
	}
	return min
}

// Advance runs the system until every core has retired n further
// instructions, without resetting statistics or building a Result.
// After a warmup Run or a prior Advance, repeated calls exercise the
// inner loop with all setup allocation already behind them; the
// steady-state allocation tests are built on that.
func (s *System) Advance(n uint64) error {
	defer s.settle()
	target := s.minRetired() + n
	budget := int64(n)*500 + 1_000_000
	deadline := s.cycle + budget
	for !s.allRetired(target) {
		if s.cycle >= deadline {
			return fmt.Errorf("sim: Advance(%d) exceeded %d cycles", n, budget)
		}
		s.step(deadline)
	}
	return nil
}
