package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
)

// --- Shared-warmup sweep scheduling --------------------------------------
//
// A parameter sweep re-simulates the same (trace, scale, seed) warmup
// once per grid point, although only the measure phase differs. The
// shared-warmup path eliminates that: grid points are grouped by
// warmup identity — the spec minus its prefetcher fields — each
// distinct warmup runs once, its post-warmup architectural state is
// snapshotted, and every sweep point sharing the prefix forks from the
// snapshot and runs only its measure phase. The snapshots live in the
// same single-flight memo as results (flight.go), keyed by WarmupKey;
// the residency cap evicts by forgetting a resolved entry, so the next
// fork of that identity leads again — reading the spill, or re-warming
// when there is none — and the snapshot is resident again. Forked runs
// are bit-identical to cold runs of the same configuration through the
// CacheWarmOnly phase decomposition (internal/sim, held to that by the
// fork determinism goldens and `audit -fork`).
//
// Results from this path are memoized and checkpointed under their own
// namespace ("sw|" keys, a distinct disk-key version): the
// cache-warm-only methodology is a deliberately different experiment
// semantics than the classic train-the-prefetcher-during-warmup path,
// and the two must never cross-pollinate a cache.

// snapMemCap bounds how many warmup snapshots stay resident: beyond
// it, the oldest is forgotten (re-loaded from its disk spill when a
// cache directory is attached; re-warmed otherwise). A multi-core
// snapshot is a few MB, so the cap bounds sweep memory at a few tens of
// MB.
const snapMemCap = 16

// WarmupKey is a spec's warmup identity under scale: the spec's identity
// (Key) with the prefetcher fields — which attach only at the measure
// boundary under CacheWarmOnly — cleared, the seed resolved against the
// scale, and the warmup length. Two specs with equal warmup keys share
// one warmup. A sweep job groups its points by it; the coordinator
// places the points of a group on any worker, warming it once on the
// first and letting the others fork its spill (SnapshotKey) from the
// shared blob store.
func WarmupKey(scale Scale, spec RunSpec) string {
	spec = spec.normalised()
	spec.L1D, spec.L2, spec.LLC, spec.IPCPL1 = "", "", "", nil
	if spec.Seed == 0 {
		spec.Seed = scale.Seed
	}
	return fmt.Sprintf("%s|%d", spec.canonical(), scale.Warmup)
}

// warmupKey is WarmupKey under the session's own scale.
func (s *Session) warmupKey(spec RunSpec) string {
	return WarmupKey(s.Scale, spec)
}

// SnapshotKey is the content address of the disk spill of spec's warmup
// under scale: the key a session spills the snapshot under, locally and
// to a remote blob store, and so the key a coordinator looks for to know
// that a group's warmup can be forked elsewhere. The version names the
// snapshot layout: v2 carried stream positions, v3 packs line arrays
// (cache.Lines), so an older spill hashes to an address nothing asks
// for.
func SnapshotKey(scale Scale, spec RunSpec) string {
	return snapshotKey(WarmupKey(scale, spec))
}

func snapshotKey(wkey string) string {
	h := sha256.Sum256(fmt.Appendf(nil, "ipcp-snap-v3|%s", wkey))
	return hex.EncodeToString(h[:])
}

// diskKeyShared addresses shared-warmup results. A separate version
// string from diskKey keeps the two methodologies' checkpoints apart
// even though they share a cache directory.
func (s *Session) diskKeyShared(specKey string) string {
	h := sha256.Sum256(fmt.Appendf(nil, "ipcp-run-sw-v1|%d|%d|%d|%s",
		s.Scale.Warmup, s.Scale.Measure, s.Scale.Seed, specKey))
	return hex.EncodeToString(h[:])
}

// RunShared executes (or recalls) one simulation with the shared-warmup
// methodology.
func (s *Session) RunShared(spec RunSpec) (*sim.Result, error) {
	return s.RunSharedContext(context.Background(), spec)
}

// RunSharedContext is RunContext's shared-warmup counterpart: the run's
// warmup phase is satisfied from the session's snapshot store (warming
// it on first use, under single-flight per warmup identity) and only
// the measure phase simulates per call. Memoization, coalescing, disk
// checkpointing, admission control and cancellation behave exactly as
// in RunContext, under a separate "sw|" key namespace.
//
// If the snapshot path fails non-fatally — a drain that cannot reach
// quiescence, say — the run falls back to a cold run through the same
// CacheWarmOnly phases, so the result semantics are unchanged; only
// the warmup sharing is lost.
func (s *Session) RunSharedContext(ctx context.Context, spec RunSpec) (*sim.Result, error) {
	return s.run(ctx, spec, true)
}

// runForked restores a fresh CacheWarmOnly system from the warmup
// snapshot and runs only its measure phase.
func (s *Session) runForked(ctx context.Context, spec RunSpec, snap *sim.Snapshot) (*sim.Result, error) {
	return runSlot(s, ctx, func(runCtx context.Context) (*sim.Result, error) {
		s.mu.Lock()
		s.stats.Executed++
		s.stats.ForkedRuns++
		s.mu.Unlock()
		// A fork's trace reads restore | measure.
		_, rsp := telemetry.StartSpan(runCtx, "sim.restore")
		sys, err := s.build(spec, true)
		if err == nil {
			defer s.release(sys)
			if err = sys.RestoreSnapshot(snap); err == nil {
				err = sys.AttachPrefetchers()
			}
		}
		if err != nil {
			rsp.SetAttr("error", err.Error())
		}
		rsp.End()
		if err != nil {
			return nil, err
		}
		return sys.RunMeasure(runCtx, s.Scale.Measure)
	})
}

// snapshotFor returns the warmup snapshot for spec's warmup identity
// from the snapshot store's single-flight memo. Its leader reads the
// disk spill or, failing that, runs the warmup — exactly once per
// identity while the snapshot stays resident — then publishes it and
// spills it behind the waiters. The returned snapshot is shared and
// immutable; RestoreSnapshot deep-copies out of it.
func (s *Session) snapshotFor(ctx context.Context, spec RunSpec) (*sim.Snapshot, error) {
	if s.testWarmupErr != nil {
		if err := s.testWarmupErr(spec); err != nil {
			return nil, err
		}
	}
	wkey := s.warmupKey(spec)
	loaded := false
	snap, how, err := s.snaps.do(ctx, s.ctx, wkey, func() {
		s.mu.Lock()
		s.stats.WarmupsCoalesced++
		s.mu.Unlock()
	}, func() (*sim.Snapshot, error) {
		if snap, ok := s.loadSnapshotSpill(ctx, spec, wkey); ok {
			loaded = true
			return snap, nil
		}
		return s.warmup(ctx, spec)
	})
	switch {
	case err != nil:
	case how != flightLed:
		s.mu.Lock()
		s.stats.SnapshotMemHits++
		s.mu.Unlock()
	case loaded || s.disk == nil:
		// Dropping it costs a disk read, or nothing can be done about it.
		s.resident(wkey)
	default:
		// It joins the residency list once its spill has been attempted:
		// evicting it before the write lands would re-warm.
		s.saves.enqueue(func() {
			_, ssp := telemetry.StartSpan(ctx, "snapshot.spill")
			defer ssp.End()
			if data, err := sim.EncodeSnapshot(snap); err == nil {
				s.disk.storeBlob(snapshotKey(wkey), data)
				s.mu.Lock()
				s.stats.SnapshotBytes += int64(len(data))
				s.mu.Unlock()
			} else {
				s.log.Warn("snapshot encode failed; not spilled", "warmup", wkey, "err", err)
			}
			s.resident(wkey)
		})
	}
	return snap, err
}

// warmup runs spec's warmup phase under a concurrency slot and
// snapshots the post-warmup state.
func (s *Session) warmup(ctx context.Context, spec RunSpec) (*sim.Snapshot, error) {
	return runSlot(s, ctx, func(runCtx context.Context) (*sim.Snapshot, error) {
		runCtx, wsp := telemetry.StartSpan(runCtx, "session.warmup")
		defer wsp.End()
		s.mu.Lock()
		s.stats.SnapshotMisses++
		s.mu.Unlock()
		sys, err := s.build(spec, true)
		if err != nil {
			return nil, err
		}
		// Snapshot deep-copies, so the system's arrays can go back.
		defer s.release(sys)
		if err := sys.RunWarmup(runCtx, s.Scale.Warmup); err != nil {
			return nil, err
		}
		return sys.Snapshot()
	})
}

// loadSnapshotSpill loads and decodes a spilled snapshot of spec's
// warmup and adopts it. A blob that fails its frame check, its gob
// decoding, or a restore into spec's own system is quarantined by the
// disk cache (never trusted) and reads as a miss.
func (s *Session) loadSnapshotSpill(ctx context.Context, spec RunSpec, wkey string) (snap *sim.Snapshot, ok bool) {
	if s.disk == nil {
		return nil, false
	}
	_, lsp := telemetry.StartSpan(ctx, "snapshot.load")
	defer lsp.End()
	ok = s.disk.loadBlob(snapshotKey(wkey), func(data []byte) (err error) {
		if snap, err = sim.DecodeSnapshot(data); err == nil {
			snap, err = s.adopt(spec, snap)
		}
		if err != nil {
			lsp.SetAttr("error", err.Error())
		}
		return err
	})
	lsp.SetAttr("hit", strconv.FormatBool(ok))
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	s.stats.SnapshotDiskHits++
	s.mu.Unlock()
	return snap, true
}

// adopt restores a snapshot decoded from bytes into a fresh system of
// spec's — the validated path, and the only one bytes take: streams
// sought, allocator replayed, every state checked against the system —
// and captures it again. The capture carries live state, so every fork
// of the resident snapshot copies it instead of replaying.
func (s *Session) adopt(spec RunSpec, decoded *sim.Snapshot) (*sim.Snapshot, error) {
	sys, err := s.build(spec, true)
	if err != nil {
		return nil, err
	}
	defer s.release(sys)
	if err := sys.RestoreSnapshot(decoded); err != nil {
		return nil, err
	}
	return sys.Snapshot()
}

// resident appends wkey to the residency list and forgets the oldest
// snapshots beyond the cap: the next fork of a forgotten identity leads
// its warmup entry again, reading the spill or, with none, re-warming.
// Only a snapshot whose spill has been attempted is ever on the list
// (see snapshotFor), so the resident count can exceed the cap by the
// spills still queued.
func (s *Session) resident(wkey string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapResident = append(s.snapResident, wkey)
	for len(s.snapResident) > snapMemCap {
		s.snaps.forget(s.snapResident[0])
		s.snapResident = s.snapResident[1:]
	}
}
