package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
	"ipcp/internal/trace"
)

// --- Shared-warmup sweep scheduling --------------------------------------
//
// A parameter sweep re-simulates the same (trace, scale, seed) warmup
// once per grid point, although only the measure phase differs. The
// shared-warmup path eliminates that: grid points are grouped by
// warmup identity — the spec minus its prefetcher fields — each
// distinct warmup runs exactly once under single-flight, its
// post-warmup architectural state is snapshotted, and every sweep
// point sharing the prefix forks from the snapshot and runs only its
// measure phase. Forked runs are bit-identical to cold runs of the
// same configuration through the CacheWarmOnly phase decomposition
// (internal/sim, held to that by the fork determinism goldens and
// `audit -fork`).
//
// Results from this path are memoized and checkpointed under their own
// namespace ("sw|" keys, a distinct disk-key version): the
// cache-warm-only methodology is a deliberately different experiment
// semantics than the classic train-the-prefetcher-during-warmup path,
// and the two must never cross-pollinate a cache.

// snapMemCap bounds how many warmup snapshots stay resident: beyond
// it, the oldest in-memory copy is dropped (re-loadable from its disk
// spill when a cache directory is attached; re-warmed otherwise). A
// multi-core snapshot is a few MB, so the cap bounds sweep memory at a
// few tens of MB.
const snapMemCap = 16

// snapEntry is one warmup identity's single-flight slot.
type snapEntry struct {
	done chan struct{}
	snap *sim.Snapshot // may be nil after eviction (spilled to disk)
	err  error
}

// WarmupKey is a spec's warmup identity under scale: the spec's identity
// (Key) with the prefetcher fields — which attach only at the measure
// boundary under CacheWarmOnly — cleared, the seed resolved against the
// scale, and the warmup length. Two specs with equal warmup keys share
// one warmup. The coordinator uses it to shard sweep grids so each
// warmup-identity group lands on exactly one worker (where its snapshot
// is forked locally).
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

// snapDiskKey is the content address of a warmup snapshot's disk spill.
// The version names the snapshot layout: v2 carries stream positions, so
// a v1 spill (replayed streams) hashes to an address nothing asks for.
func (s *Session) snapDiskKey(wkey string) string {
	h := sha256.Sum256(fmt.Appendf(nil, "ipcp-snap-v2|%s", wkey))
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
	return s.run(ctx, spec, "sw|", s.diskKeyShared, s.executeShared, true)
}

// RunSweep executes a sweep grid with shared warmups, returning results
// and errors in spec order (entry i holds one or the other). Specs
// sharing a warmup identity — typically a prefetcher sweep over one
// workload — run one warmup between them and fork the rest; distinct
// identities warm concurrently under the session's admission cap.
func (s *Session) RunSweep(specs []RunSpec) ([]*sim.Result, []error) {
	results := make([]*sim.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.RunShared(specs[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}

// executeShared is the shared-warmup execution body behind lead: fork
// from the warmup snapshot when one can be had, cold-run through the
// same phases when not.
func (s *Session) executeShared(ctx context.Context, spec RunSpec) (*sim.Result, error) {
	snap, err := s.snapshotFor(ctx, spec)
	if err != nil {
		if fatal(err) {
			return nil, err
		}
		// Snapshot path degraded (e.g. the workload never drains to
		// quiescence): cold-run this point through the identical
		// CacheWarmOnly phases so its result semantics are unchanged.
		s.log.Warn("shared warmup unavailable; falling back to cold run",
			"spec", spec.Key(), "err", err)
		return runSlot(s, ctx, func(runCtx context.Context) (*sim.Result, error) {
			s.mu.Lock()
			s.executed++
			s.mu.Unlock()
			sys, err := s.buildShared(spec)
			if err != nil {
				return nil, err
			}
			defer s.release(sys)
			return sys.RunContext(runCtx, s.Scale.Warmup, s.Scale.Measure)
		})
	}
	return runSlot(s, ctx, func(runCtx context.Context) (*sim.Result, error) {
		s.mu.Lock()
		s.executed++
		s.forkedRuns++
		s.mu.Unlock()
		// A fork's trace reads restore | measure.
		_, rsp := telemetry.StartSpan(runCtx, "sim.restore")
		sys, err := s.buildShared(spec)
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

// buildShared builds the spec's system in CacheWarmOnly mode.
func (s *Session) buildShared(spec RunSpec) (*sim.System, error) {
	streams, err := s.specStreams(spec)
	if err != nil {
		return nil, err
	}
	cfg := specConfig(spec, s.specSeed(spec))
	cfg.CacheWarmOnly = true
	return sim.Build(cfg, streams)
}

// snapshotFor returns the warmup snapshot for spec's warmup identity,
// running the warmup (exactly once per identity, under single-flight)
// or recalling it from memory or the disk spill. The returned snapshot
// is shared and immutable; RestoreSnapshot deep-copies out of it.
func (s *Session) snapshotFor(ctx context.Context, spec RunSpec) (*sim.Snapshot, error) {
	if s.testWarmupErr != nil {
		if err := s.testWarmupErr(spec); err != nil {
			return nil, err
		}
	}
	wkey := s.warmupKey(spec)
	for {
		s.snapMu.Lock()
		if e, ok := s.snaps[wkey]; ok {
			select {
			case <-e.done: // resolved
			default: // warmup in flight: coalesce
				s.warmupsCoalesced++
				s.snapMu.Unlock()
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-s.ctx.Done():
					return nil, s.ctx.Err()
				}
				if e.err != nil && fatal(e.err) {
					// The leader was interrupted and its entry removed;
					// retry as the new leader if we are still live.
					if err := firstError(ctx.Err(), s.ctx.Err()); err != nil {
						return nil, err
					}
					continue
				}
				if e.err != nil {
					return nil, e.err
				}
				s.snapMu.Lock()
			}
			if e.err != nil {
				s.snapMu.Unlock()
				return nil, e.err
			}
			if e.snap != nil {
				// Copy the pointer out under the lock: a concurrent
				// eviction may null e.snap the moment snapMu releases,
				// and the caller must get the still-valid snapshot,
				// never a nil read racing the eviction.
				snap := e.snap
				s.snapMemHits++
				s.snapMu.Unlock()
				return snap, nil
			}
			// Evicted from memory: re-load the disk spill.
			s.snapMu.Unlock()
			if snap, ok := s.loadSnapshotSpill(ctx, spec, wkey); ok {
				return snap, nil
			}
			// The spill is gone (cache wiped, quarantined, or no cache
			// directory): forget the entry and re-lead the warmup.
			s.snapMu.Lock()
			if cur, ok := s.snaps[wkey]; ok && cur == e {
				delete(s.snaps, wkey)
			}
			s.snapMu.Unlock()
			continue
		}
		e := &snapEntry{done: make(chan struct{})}
		s.snaps[wkey] = e
		s.snapMu.Unlock()
		return s.leadWarmup(ctx, spec, wkey, e)
	}
}

// leadWarmup resolves a snapshot entry as its leader: disk spill if
// present, else run the warmup under a concurrency slot, snapshot,
// publish it to the siblings blocked on the group, and spill behind
// them. Fatal outcomes are removed before publishing so later callers
// retry rather than inherit an interruption.
func (s *Session) leadWarmup(ctx context.Context, spec RunSpec, wkey string, e *snapEntry) (*sim.Snapshot, error) {
	// evictable says the snapshot may be dropped from memory under the
	// residency cap: true when dropping it costs a disk read (its spill
	// is there) or nothing can be done about it (no cache directory).
	// A snapshot whose spill is still queued joins the residency list
	// when the write lands — evicting it earlier would re-warm.
	resolve := func(snap *sim.Snapshot, err error, evictable bool) (*sim.Snapshot, error) {
		s.snapMu.Lock()
		e.snap, e.err = snap, err
		if err != nil && fatal(err) {
			delete(s.snaps, wkey)
		}
		if snap != nil && evictable {
			s.evictSnapshotsLocked(wkey)
		}
		s.snapMu.Unlock()
		close(e.done)
		return snap, err
	}

	if err := firstError(ctx.Err(), s.ctx.Err()); err != nil {
		return resolve(nil, err, false)
	}
	if snap, ok := s.loadSnapshotSpill(ctx, spec, wkey); ok {
		return resolve(snap, nil, true)
	}

	snap, err := runSlot(s, ctx, func(runCtx context.Context) (*sim.Snapshot, error) {
		runCtx, wsp := telemetry.StartSpan(runCtx, "session.warmup")
		defer wsp.End()
		s.mu.Lock()
		s.snapMisses++
		s.mu.Unlock()
		sys, err := s.buildShared(spec)
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
	if err != nil {
		return resolve(nil, err, false)
	}
	if s.disk == nil {
		return resolve(snap, nil, true)
	}
	resolve(snap, nil, false)
	s.saves.enqueue(func() {
		_, ssp := telemetry.StartSpan(ctx, "snapshot.spill")
		defer ssp.End()
		if data, err := sim.EncodeSnapshot(snap); err == nil {
			s.disk.storeBlob(s.snapDiskKey(wkey), data)
			s.mu.Lock()
			s.snapBytes += int64(len(data))
			s.mu.Unlock()
		} else {
			s.log.Warn("snapshot encode failed; not spilled", "warmup", wkey, "err", err)
		}
		s.snapMu.Lock()
		s.evictSnapshotsLocked(wkey)
		s.snapMu.Unlock()
	})
	return snap, nil
}

// loadSnapshotSpill loads and decodes a spilled snapshot of spec's
// warmup. A blob that fails its frame check, its gob decoding, or whose
// stream positions spec's own streams refuse to seek to is quarantined
// by the disk cache (never trusted) and reads as a miss.
func (s *Session) loadSnapshotSpill(ctx context.Context, spec RunSpec, wkey string) (snap *sim.Snapshot, ok bool) {
	if s.disk == nil {
		return nil, false
	}
	_, lsp := telemetry.StartSpan(ctx, "snapshot.load")
	defer lsp.End()
	ok = s.disk.loadBlob(s.snapDiskKey(wkey), func(data []byte) (err error) {
		if snap, err = sim.DecodeSnapshot(data); err == nil {
			var streams []trace.Stream
			if streams, err = s.specStreams(spec); err == nil {
				err = snap.SeekStreams(streams)
			}
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
	s.snapDiskHits++
	s.mu.Unlock()
	return snap, true
}

// evictSnapshotsLocked appends wkey to the residency list and drops the
// oldest in-memory snapshots beyond the cap (their entries stay — the
// warmup is done — only the resident copy goes; a later fork reloads
// the spill or, with no cache directory, re-warms). Only a snapshot
// whose spill has been attempted is ever on the list (see leadWarmup),
// so the resident count can exceed the cap by the spills still queued.
// Callers hold snapMu.
func (s *Session) evictSnapshotsLocked(wkey string) {
	s.snapResident = append(s.snapResident, wkey)
	for len(s.snapResident) > snapMemCap {
		oldest := s.snapResident[0]
		s.snapResident = s.snapResident[1:]
		if e, ok := s.snaps[oldest]; ok {
			select {
			case <-e.done:
				e.snap = nil
			default:
				// Still in flight (shouldn't happen — residency is
				// recorded at resolve — but never evict an unresolved
				// entry).
				s.snapResident = append(s.snapResident, oldest)
				return
			}
		}
	}
}
