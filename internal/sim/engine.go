package sim

import (
	"context"
	"fmt"
	"math"

	"ipcp/internal/cache"
	"ipcp/internal/cpu"
	"ipcp/internal/memsys"
	"ipcp/internal/telemetry"
)

// This file holds the scheduler — System.step, the one way simulated
// time advances — and the unified phase loops every run path
// (RunContext, RunWarmup, RunMeasure, Advance, drain) drives it from.

// Kind names a class of clocked component.
type Kind int

// The kinds, in the order step visits them within a cycle: the memory
// side first, then each core's private slice from the L2 up.
const (
	KindDRAM Kind = iota
	KindLLC
	KindL2
	KindL1D
	KindL1I
	KindCore
	NumKinds
)

func (k Kind) String() string {
	return [...]string{"DRAM", "LLC", "L2", "L1D", "L1I", "core"}[k]
}

// slot is one clocked component's place in the visit order. A cache
// kind carries cache, KindCore carries core, KindDRAM is System.mem.
type slot struct {
	kind  Kind
	cache *cache.Cache
	core  *cpu.Core
}

// EngineStats is the scheduler's self-profile: counters only, reset at
// the warmup boundary with every other statistic. Every simulated
// cycle is either stepped (at least one component was due and clocked)
// or jumped (nothing was due; the cycle was crossed in a span without
// clocking anything), so SteppedCycles + JumpedCycles is the simulated
// cycle count, and on a stepped cycle every component is either visited
// or skipped in its slot.
type EngineStats struct {
	SteppedCycles uint64
	JumpedCycles  uint64
	Jumps         uint64 // spans; JumpedCycles/Jumps is the mean span

	// Visits counts Cycle calls per kind; Skipped the slots passed over
	// on stepped cycles because the component was not due.
	Visits  [NumKinds]uint64
	Skipped [NumKinds]uint64

	// Waker attributes each stepped cycle to the kind of the first
	// component found due in visit order — the one that foreclosed a
	// jump over that cycle; Sole counts the subset on which it was the
	// only component due (making that kind sleep longer would have let
	// the whole machine skip the cycle).
	Waker [NumKinds]uint64
	Sole  [NumKinds]uint64

	// Idle counts the visits whose Cycle changed nothing in the
	// component (a cache: no fill installed, no miss forwarded, no queue
	// popped; a core: nothing retired, issued or dispatched; the
	// controller: no transaction started) — what a sharper NextEvent
	// could still turn into skips.
	Idle [NumKinds]uint64
}

// VisitsPerStep is the mean number of components clocked per stepped
// cycle.
func (e *EngineStats) VisitsPerStep() float64 {
	if e.SteppedCycles == 0 {
		return 0
	}
	var v uint64
	for _, n := range e.Visits {
		v += n
	}
	return float64(v) / float64(e.SteppedCycles)
}

// checkVisitOrder asserts what the wake-time rules rest on: every
// component's downstream sinks come before it in the visit order. A
// request pushed down therefore lands on a component already visited
// this cycle (it is work for the next one) and data returned up lands
// on one not yet visited (a return that is already ready is consumed
// this cycle) — exactly when the clock-everything reference sees them.
func (s *System) checkVisitOrder() error {
	seen := make(map[memsys.Sink]bool, len(s.slots))
	for i, sl := range s.slots {
		var down [2]memsys.Sink
		switch sl.kind {
		case KindDRAM:
			seen[s.mem] = true
			continue
		case KindCore:
			down[0], down[1] = sl.core.Sinks()
		default:
			seen[sl.cache] = true
			down[0] = sl.cache.Lower()
		}
		for _, d := range down {
			if d != nil && !seen[d] {
				return fmt.Errorf("sim: slot %d (%v) pushes to a component visited after it", i, sl.kind)
			}
		}
	}
	return nil
}

// step advances simulated time: it clocks, in the fixed visit order,
// every component whose wake time has come, then moves to the next
// cycle — or, when nothing was due, straight to the earliest wake time.
//
// Wake times live in s.wake, one word per slot in visit order (each
// component's memsys.Wake is a handle to its word), so finding what is
// due is a scan of one small array. A visited component is re-armed
// with its own NextEvent, which names the earliest cycle clocking it
// could change anything absent new input; input lowers the wake time at
// the receiver. A component that is not due costs the scan one compare
// and nothing else: the per-cycle counters its Cycle would have bumped
// are settled by the component itself, in closed form over the whole
// span it slept, when it is next touched (DESIGN.md §10, rule 4).
// Jumps are capped at the run deadline and the next interval-sample
// boundary, so error cycles and telemetry samples land where the
// reference puts them. Config.DisableFastForward turns the gate off —
// every component clocked every cycle, so no span is ever left to
// settle — and is the reference the determinism suite holds the gated
// schedule bit-identical to.
func (s *System) step(deadline int64) {
	now := s.cycle
	gate := !s.cfg.DisableFastForward
	es := &s.engine
	visited := 0
	first := KindDRAM
	// next is the earliest wake time among skipped components; it is
	// only used when nothing was visited, and then nothing can have
	// lowered a wake time behind the scan's back.
	next := int64(math.MaxInt64)

	// The slice header is loop-invariant; the words are not (a visit
	// lowers the wake times of the components it hands work to), so
	// each is read when the scan reaches it.
	wake := s.wake
	for i := range wake {
		if w := wake[i]; w > now && gate {
			if w < next {
				next = w
			}
			continue
		}
		sl := &s.slots[i]
		var idle bool
		switch sl.kind {
		case KindDRAM:
			s.mem.Cycle(now)
			idle = s.mem.Idle()
			if gate {
				wake[i] = s.mem.NextEvent(now)
			}
		case KindCore:
			sl.core.Cycle(now)
			idle = sl.core.Idle()
			if gate {
				wake[i] = sl.core.NextEvent(now)
			}
		default:
			sl.cache.Cycle(now)
			idle = sl.cache.Idle()
			if gate {
				wake[i] = sl.cache.NextEvent(now)
			}
		}
		if visited == 0 {
			first = sl.kind
		}
		visited++
		es.Visits[sl.kind]++
		if idle {
			es.Idle[sl.kind]++
		}
	}
	s.cycle++

	if visited > 0 {
		es.SteppedCycles++
		es.Waker[first]++
		if visited == 1 {
			es.Sole[first]++
		}
	} else {
		// Nothing was due at now, so nothing changed and every wake
		// time stands: no component has work before next.
		if next > deadline {
			next = deadline
		}
		if s.sampling {
			if b := s.lastSample + s.ilog.Every; next > b {
				next = b
			}
		}
		if next > s.cycle {
			s.cycle = next
		}
		es.Jumps++
		es.JumpedCycles += uint64(s.cycle - now)
	}
	if s.sampling && s.cycle-s.lastSample >= s.ilog.Every {
		s.flushInterval()
	}
}

// settle brings every component's per-cycle counters up to s.cycle.
// Skipped cycles are booked by the component when it is next touched,
// so whatever reads Stats fields between touches — an interval sample
// inside the loop, the caller once a stepping loop returns — settles
// first.
func (s *System) settle() {
	for _, sl := range s.slots {
		s.component(sl).Settle()
	}
}

// clocked is what the scheduler asks of a component outside the step
// loop (which calls Cycle, NextEvent and Idle on the concrete types).
type clocked interface {
	Bind(cell, clock *int64)
	Settle()
}

func (s *System) component(sl slot) clocked {
	switch sl.kind {
	case KindDRAM:
		return s.mem
	case KindCore:
		return sl.core
	default:
		return sl.cache
	}
}

// loopCtl is one run's loop bookkeeping. RunContext threads a single
// ctl through warmup and measurement (one shared cycle budget, one
// cancellation cadence across the phase boundary); RunWarmup and
// RunMeasure, which run one phase each, each build their own.
type loopCtl struct {
	maxCycles  int64
	deadline   int64
	nextCancel int64
}

// newLoopCtl derives the cycle budget from the instruction budget
// unless the config pins one.
func (s *System) newLoopCtl(budget uint64) *loopCtl {
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		// A generous bound: no workload should average > 500
		// cycles/instruction.
		maxCycles = int64(budget)*500 + 1_000_000
	}
	return &loopCtl{
		maxCycles:  maxCycles,
		deadline:   s.cycle + maxCycles,
		nextCancel: s.cycle,
	}
}

// warmupPhase is the warmup half of every run: the sim.warmup span and
// the warmup progress reports around warmupLoop, then — on a
// CacheWarmOnly system — the drain to quiescence, so the measure phase
// starts from the state a snapshot would capture.
func (s *System) warmupPhase(ctx context.Context, warmup uint64, ctl *loopCtl) (err error) {
	report := s.reporter(ctx, "warmup", warmup)
	_, span := telemetry.StartSpan(ctx, "sim.warmup")
	defer endPhaseSpan(span, &err)
	report()
	if err := s.warmupLoop(ctx, warmup, ctl, report); err != nil {
		return err
	}
	report()
	if s.cfg.CacheWarmOnly {
		return s.drain(ctx)
	}
	return nil
}

// measurePhase is the measure half of every run: statistics reset at
// the boundary, the sim.measure span and the measure progress reports
// around measureLoop, and the Result.
func (s *System) measurePhase(ctx context.Context, measure uint64, ctl *loopCtl) (res *Result, err error) {
	report := s.reporter(ctx, "measure", measure)
	_, span := telemetry.StartSpan(ctx, "sim.measure")
	defer endPhaseSpan(span, &err)
	s.resetStats()
	start := s.cycle
	report()
	finish, err := s.measureLoop(ctx, measure, ctl, report)
	if err != nil {
		return nil, err
	}
	report()
	return s.buildResult(measure, start, finish), nil
}

// reporter returns the phase's progress report: a no-op unless ctx
// carries a telemetry.ProgressFunc.
func (s *System) reporter(ctx context.Context, phase string, target uint64) func() {
	progress := telemetry.ProgressFrom(ctx)
	if progress == nil {
		return func() {}
	}
	return func() {
		progress(telemetry.Progress{Phase: phase, Retired: s.minRetired(), Target: target, Cycle: s.cycle})
	}
}

// endPhaseSpan closes a phase span, tagged with the error that cut the
// phase short (End on a nil span no-ops).
func endPhaseSpan(span *telemetry.ActiveSpan, err *error) {
	if *err != nil {
		span.SetAttr("error", (*err).Error())
	}
	span.End()
}

// warmupLoop steps the system until every core has retired warmup
// instructions.
func (s *System) warmupLoop(ctx context.Context, warmup uint64, ctl *loopCtl, report func()) error {
	defer s.settle()
	for !s.allRetired(warmup) {
		if s.cycle >= ctl.deadline {
			return fmt.Errorf("sim: warmup exceeded %d cycles", ctl.maxCycles)
		}
		if s.cycle >= ctl.nextCancel {
			ctl.nextCancel = s.cycle + cancelCheckInterval
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: warmup cancelled at cycle %d: %w", s.cycle, err)
			}
			report()
		}
		// A step that retires anything advances exactly one cycle (it
		// jumps only when no component was due), so the retirement check
		// sees the exact cycle the last core got there.
		s.step(ctl.deadline)
	}
	return nil
}

// measureLoop steps the system until every core has retired measure
// further instructions, recording each core's finish cycle. Cores that
// finish early keep executing (contending for shared resources) until
// the last core finishes, as in the paper's methodology.
func (s *System) measureLoop(ctx context.Context, measure uint64, ctl *loopCtl, report func()) ([]int64, error) {
	defer s.settle()
	finish := make([]int64, s.cfg.Cores)
	finished := make([]bool, s.cfg.Cores)
	done := 0
	for done < s.cfg.Cores {
		if s.cycle >= ctl.deadline {
			return nil, fmt.Errorf("sim: measurement exceeded %d cycles (%d/%d cores finished)",
				ctl.maxCycles, done, s.cfg.Cores)
		}
		if s.cycle >= ctl.nextCancel {
			ctl.nextCancel = s.cycle + cancelCheckInterval
			if err := ctx.Err(); err != nil {
				if s.sampling {
					s.flushInterval()
					s.sampling = false
				}
				return nil, fmt.Errorf("sim: measurement cancelled at cycle %d: %w", s.cycle, err)
			}
			report()
		}
		// A finishing core's recorded cycle is the stepped cycle, never
		// a jump target: a step that clocks a core does not jump.
		s.step(ctl.deadline)
		done += scanFinished(s.cores, s.cycle, measure, finish, finished)
	}

	// Close the last (partial) interval so the timeline's deltas sum
	// exactly to the end-of-run totals.
	if s.sampling {
		s.flushInterval()
		s.sampling = false
	}
	return finish, nil
}

// scanFinished records the finish cycle of each core that has just
// reached its measured-instruction target, returning how many finished
// on this call. finished is the explicit has-finished flag: the
// recorded cycle value cannot double as one, because a core can
// legitimately finish at any cycle number (a forked system restores
// mid-timeline), so a zero sentinel could re-count it.
func scanFinished(cores []*cpu.Core, cycle int64, measure uint64, finish []int64, finished []bool) int {
	n := 0
	for i, c := range cores {
		if !finished[i] && c.Retired() >= measure {
			finished[i] = true
			finish[i] = cycle
			n++
		}
	}
	return n
}

// buildResult assembles the Result of a measured phase that started at
// start and finished per-core at finish.
func (s *System) buildResult(measure uint64, start int64, finish []int64) *Result {
	res := &Result{
		Cores:            s.cfg.Cores,
		Instructions:     measure,
		CyclesPerCore:    make([]int64, s.cfg.Cores),
		IPC:              make([]float64, s.cfg.Cores),
		LLC:              s.llc.Stats,
		DRAM:             s.mem.Stats,
		PrefetcherFaults: s.PrefetcherFaults(),
		Engine:           s.engine,
	}
	// Skipped is derived, not counted: every slot of a stepped cycle
	// that was not visited was skipped.
	for _, sl := range s.slots {
		res.Engine.Skipped[sl.kind] += s.engine.SteppedCycles
	}
	for k, v := range s.engine.Visits {
		res.Engine.Skipped[k] -= v
	}
	for i := range s.cores {
		cyc := finish[i] - start
		res.CyclesPerCore[i] = cyc
		res.IPC[i] = float64(measure) / float64(cyc)
		res.CoreStats = append(res.CoreStats, s.cores[i].Stats)
		res.L1D = append(res.L1D, s.l1ds[i].Stats)
		res.L1I = append(res.L1I, s.l1is[i].Stats)
		res.L2 = append(res.L2, s.l2s[i].Stats)
		res.IPCPL1 = append(res.IPCPL1, snapshotOf(s.l1ds[i]))
		res.IPCPL2 = append(res.IPCPL2, snapshotOf(s.l2s[i]))
	}
	return res
}
