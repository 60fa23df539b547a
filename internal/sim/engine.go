package sim

import (
	"context"
	"fmt"

	"ipcp/internal/cpu"
)

// This file holds the unified phase loops every run path (RunContext,
// RunWarmup, RunMeasure) drives; each clocks the system with
// System.step and skips idle spans with System.fastForward.

// loopCtl is one run's loop bookkeeping. RunContext threads a single
// ctl through warmup and measurement (one shared cycle budget, one
// cancellation cadence across the phase boundary); the split-phase
// paths (RunWarmup, RunMeasure) each build their own.
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

// warmupLoop steps the system until every core has retired warmup
// instructions. Shared by RunContext's warmup phase and RunWarmup.
func (s *System) warmupLoop(ctx context.Context, warmup uint64, ctl *loopCtl, report func()) error {
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
		s.step()
		// The retirement check must see the exact post-step cycle, so
		// fast-forward only once the loop is known to continue.
		if !s.allRetired(warmup) {
			s.fastForward(ctl.deadline)
		}
	}
	return nil
}

// measureLoop steps the system until every core has retired measure
// further instructions, recording each core's finish cycle. Cores that
// finish early keep executing (contending for shared resources) until
// the last core finishes, as in the paper's methodology. Shared by
// RunContext's measure phase and RunMeasure.
func (s *System) measureLoop(ctx context.Context, measure uint64, ctl *loopCtl, report func()) ([]int64, error) {
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
		s.step()
		done += scanFinished(s.cores, s.cycle, measure, finish, finished)
		// Fast-forward only after the finish scan: a finishing core's
		// recorded cycle must be the stepped cycle, not a jump target.
		if done < s.cfg.Cores {
			s.fastForward(ctl.deadline)
		}
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
