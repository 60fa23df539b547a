package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"ipcp/internal/cache"
	"ipcp/internal/cpu"
	"ipcp/internal/dram"
	"ipcp/internal/vmem"
)

// This file is the warmup-forking engine: a CacheWarmOnly system runs
// its warmup once, drains every in-flight request to quiescence, and
// captures the remaining architectural state — cache lines, replacement
// metadata, TLBs, page tables, branch predictors, DRAM bank timing and
// the trace-stream positions — as a Snapshot. Any number of fresh
// systems sharing that warmup prefix then restore from the snapshot and
// run only their measure phase. Quiescence is what makes the capture
// tractable: with no requests in flight there is no pointer graph to
// serialize, only plain data, and the restore is provably lossless
// (the fork-vs-cold differential suite holds forked runs bit-identical
// to cold ones).

// Snapshot is a deep capture of a quiescent post-warmup system. It is
// self-describing enough to be spilled to disk (gob) and restored in a
// different process, provided the restoring system is built from an
// identical configuration and identical trace generators.
type Snapshot struct {
	// Sig guards against restoring into a mismatched system.
	Sig   string
	Cycle int64

	Alloc vmem.PhysAllocatorState
	Cores []cpu.State
	L1Is  []cache.State
	L1Ds  []cache.State
	L2s   []cache.State
	LLC   cache.State
	DRAM  dram.ControllerState
}

// ConfigSignature fingerprints the snapshot-relevant parts of a config:
// everything that shapes warmup state, and nothing about prefetchers
// (CacheWarmOnly warmup is prefetcher-independent by construction).
func ConfigSignature(cfg Config) string {
	return fmt.Sprintf("cores=%d core=%+v l1i=%+v l1d=%+v l2=%+v llc=%+v dram=%+v seed=%d",
		cfg.Cores, cfg.Core, cfg.L1I, cfg.L1D, cfg.L2, cfg.LLC, cfg.DRAM, cfg.Seed)
}

// Quiescent reports whether no component holds in-flight work.
func (s *System) Quiescent() bool {
	for i := range s.cores {
		if !s.cores[i].Quiescent() {
			return false
		}
		if !s.l1ds[i].Quiescent() || !s.l1is[i].Quiescent() || !s.l2s[i].Quiescent() {
			return false
		}
	}
	return s.llc.Quiescent() && s.mem.Quiescent()
}

// drainMaxCycles bounds the drain loop; a drain is normally a few
// hundred cycles (one ROB depth of retirement plus queue flush).
const drainMaxCycles = 2_000_000

// drain stops instruction fetch on every core and clocks the system
// until quiescence, then re-opens fetch. The drained instructions stay
// retired — both the cold path and the forked path pass through the
// same drain point, so the measure phase starts from the same state
// either way.
func (s *System) drain(ctx context.Context) error {
	for i := range s.cores {
		s.cores[i].StopFetch()
	}
	s.unfinished, s.late, s.draining = 0, false, true
	defer func() {
		s.draining = false
		for i := range s.cores {
			s.cores[i].ResumeFetch()
		}
	}()
	return s.stepUntil(ctx, s.cycleCtl(drainMaxCycles), func() (string, string) { return "drain", "" }, func() {})
}

// RunWarmup executes the warmup phase — the same phase RunContext
// runs — and so ends drained to quiescence, ready to be snapshotted or
// to continue into AttachPrefetchers + RunMeasure. Only valid on
// CacheWarmOnly systems: sharing a warmup across prefetcher
// configurations requires the warmup to be prefetcher-independent.
func (s *System) RunWarmup(ctx context.Context, warmup uint64) error {
	if !s.cfg.CacheWarmOnly {
		return fmt.Errorf("sim: RunWarmup requires Config.CacheWarmOnly")
	}
	return s.warmupPhase(ctx, warmup, s.newLoopCtl(warmup))
}

// Snapshot captures the drained system. The system must be quiescent
// (RunWarmup leaves it so) and must not have prefetchers attached yet.
func (s *System) Snapshot() (*Snapshot, error) {
	if !s.cfg.CacheWarmOnly {
		return nil, fmt.Errorf("sim: Snapshot requires Config.CacheWarmOnly")
	}
	if s.pfAttached {
		return nil, fmt.Errorf("sim: Snapshot must be taken before AttachPrefetchers")
	}
	if !s.Quiescent() {
		return nil, fmt.Errorf("sim: system not quiescent")
	}
	snap := &Snapshot{
		Sig:   ConfigSignature(s.cfg),
		Cycle: s.cycle,
		Alloc: s.alloc.State(),
		Cores: make([]cpu.State, len(s.cores)),
		L1Is:  make([]cache.State, len(s.l1is)),
		L1Ds:  make([]cache.State, len(s.l1ds)),
		L2s:   make([]cache.State, len(s.l2s)),
	}
	var err error
	for i := range s.cores {
		if snap.Cores[i], err = s.cores[i].CaptureState(); err != nil {
			return nil, err
		}
		if snap.L1Is[i], err = s.l1is[i].CaptureState(); err != nil {
			return nil, err
		}
		if snap.L1Ds[i], err = s.l1ds[i].CaptureState(); err != nil {
			return nil, err
		}
		if snap.L2s[i], err = s.l2s[i].CaptureState(); err != nil {
			return nil, err
		}
	}
	if snap.LLC, err = s.llc.CaptureState(); err != nil {
		return nil, err
	}
	if snap.DRAM, err = s.mem.CaptureState(); err != nil {
		return nil, err
	}
	return snap, nil
}

// RestoreSnapshot forks a freshly built CacheWarmOnly system from snap:
// after it returns, the system is in exactly the state the snapshotted
// system was in at its drain point, including the trace streams'
// positions (sought, not regenerated — the streams must be fresh
// instances of the same generators). Continue with AttachPrefetchers +
// RunMeasure. A snapshot taken in this process carries live copies of
// its random state (stream sources, the frame allocator) and its tag
// mirrors, and the restore copies them: it discards no draw and replays
// no frame. A decoded snapshot has none, so its streams seek by
// re-drawing and its allocator replays, every step validated: a
// snapshot the system could not have produced — decoded from damaged
// bytes, say — is an error, never a panic.
func (s *System) RestoreSnapshot(snap *Snapshot) error {
	if !s.cfg.CacheWarmOnly {
		return fmt.Errorf("sim: RestoreSnapshot requires Config.CacheWarmOnly")
	}
	if s.pfAttached {
		return fmt.Errorf("sim: RestoreSnapshot must run before AttachPrefetchers")
	}
	if s.cycle != 0 {
		return fmt.Errorf("sim: RestoreSnapshot requires a fresh system (cycle %d)", s.cycle)
	}
	if sig := ConfigSignature(s.cfg); sig != snap.Sig {
		return fmt.Errorf("sim: snapshot signature mismatch:\n  snapshot: %s\n  system:   %s", snap.Sig, sig)
	}
	n := len(s.cores)
	if len(snap.Cores) != n || len(snap.L1Is) != n || len(snap.L1Ds) != n || len(snap.L2s) != n {
		return fmt.Errorf("sim: snapshot core count mismatch")
	}
	// Only a page-table miss allocates a frame, so the allocator's
	// position is the mapped page count; checking it bounds the replay.
	pages := uint64(0)
	for i := range snap.Cores {
		pages += uint64(len(snap.Cores[i].PageTable.Pages))
	}
	if snap.Alloc.Allocs != pages {
		return fmt.Errorf("sim: snapshot allocator at %d frames, page tables map %d", snap.Alloc.Allocs, pages)
	}
	s.alloc.Replay(snap.Alloc)
	for i := range s.cores {
		if err := s.cores[i].RestoreState(snap.Cores[i], snap.Cycle); err != nil {
			return err
		}
		if err := s.l1is[i].RestoreState(snap.L1Is[i]); err != nil {
			return err
		}
		if err := s.l1ds[i].RestoreState(snap.L1Ds[i]); err != nil {
			return err
		}
		if err := s.l2s[i].RestoreState(snap.L2s[i]); err != nil {
			return err
		}
	}
	if err := s.llc.RestoreState(snap.LLC); err != nil {
		return err
	}
	if err := s.mem.RestoreState(snap.DRAM, snap.Cycle); err != nil {
		return err
	}
	s.cycle = snap.Cycle
	return nil
}

// AttachPrefetchers constructs, guards and attaches the configured
// prefetchers on a CacheWarmOnly system — the measure-boundary step
// that turns a shared warm system into one concrete sweep point.
func (s *System) AttachPrefetchers() error {
	if !s.cfg.CacheWarmOnly {
		return fmt.Errorf("sim: AttachPrefetchers requires Config.CacheWarmOnly")
	}
	if s.pfAttached {
		return fmt.Errorf("sim: prefetchers already attached")
	}
	if err := s.attachPrefetchers(); err != nil {
		return err
	}
	s.pfAttached = true
	if s.tracer != nil {
		s.SetTracer(s.tracer) // re-apply to the newly attached prefetchers
	}
	return nil
}

// RunMeasure runs the measure phase — the same phase RunContext runs,
// statistics reset at its boundary. Valid after RunWarmup (cold) or
// RestoreSnapshot (forked), in both cases after AttachPrefetchers.
func (s *System) RunMeasure(ctx context.Context, measure uint64) (*Result, error) {
	if !s.cfg.CacheWarmOnly {
		return nil, fmt.Errorf("sim: RunMeasure requires Config.CacheWarmOnly")
	}
	if !s.pfAttached {
		return nil, fmt.Errorf("sim: RunMeasure requires AttachPrefetchers first")
	}
	return s.measurePhase(ctx, measure, s.newLoopCtl(measure))
}

// EncodeSnapshot serializes snap (gob) for the disk spill path.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("sim: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a snapshot produced by EncodeSnapshot.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("sim: decoding snapshot: %w", err)
	}
	return &snap, nil
}
