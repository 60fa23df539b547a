package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync/atomic"

	"ipcp/internal/sim"
	"ipcp/internal/store"
)

// diskCache is the Session's persistent checkpoint store: one framed
// JSON file per simulation result, content-addressed by the SHA-256 of
// the run's full identity (workload + configuration + scale). An
// interrupted or crashed experiment invocation resumes by pointing a
// new session at the same directory; completed runs load from disk and
// only the missing ones recompute. Simulations are deterministic, so a
// resumed session reproduces byte-identical tables.
//
// Framing, atomic writes and quarantine-on-damage are the store.Dir's
// (DESIGN §14); the policy on top lives here: the remote tier, the
// spec-identity check, and failed writes degrading to a no-op.
type diskCache struct {
	local *store.Dir
	log   *slog.Logger

	// remote, when attached, is a shared second-level store (the
	// coordinator's content-addressed blob service): local misses fall
	// through to it, and every local write is pushed to it, so any
	// worker's checkpoint or warmup spill is every worker's disk hit.
	remote RemoteBlobs

	// storeFails counts local writes that failed (non-fatally); with
	// the Dir's quarantine count it reaches SessionStats and /metrics.
	storeFails atomic.Uint64
	remoteHits atomic.Uint64
	remotePuts atomic.Uint64
}

// RemoteBlobs is a shared second-level blob store keyed by the same
// content addresses as the local cache. Payloads are opaque to the
// store; any transport framing and integrity checking is the
// implementation's business (a payload returned from GetBlob must
// already be verified). Both methods are best-effort: GetBlob misses
// with ok=false, PutBlob failures are swallowed (and should be counted
// by the implementation) — a dead remote degrades sharing, never
// correctness.
type RemoteBlobs interface {
	GetBlob(key string) (payload []byte, ok bool)
	PutBlob(key string, payload []byte)
}

// newDiskCache creates (if needed) the cache directory. The chaos
// points of every write are checkpoint.save/checkpoint.write.
func newDiskCache(dir string, log *slog.Logger) (*diskCache, error) {
	local, err := store.OpenDir(dir, "checkpoint", log)
	if err != nil {
		return nil, fmt.Errorf("experiments: cache dir: %w", err)
	}
	return &diskCache{local: local, log: log}, nil
}

// diskKey derives the content address for one memoization key under
// this session's scale. Scale fields that alter a run's outcome are
// part of the identity, so one directory safely serves any mix of
// scales.
func (s *Session) diskKey(specKey string) string {
	h := sha256.Sum256(fmt.Appendf(nil, "ipcp-run-v1|%d|%d|%d|%s",
		s.Scale.Warmup, s.Scale.Measure, s.Scale.Seed, specKey))
	return hex.EncodeToString(h[:])
}

// entry is a checkpoint's payload: the spec key is stored alongside the
// result so a (vanishingly unlikely) hash collision or a stale file
// from an older key scheme is detected instead of silently served.
type entry struct {
	Spec   string      `json:"spec"`
	Result *sim.Result `json:"result"`
}

// decodeEntry parses a CRC-clean checkpoint payload and holds it to the
// spec identity the caller asked for.
func decodeEntry(payload []byte, specKey string) (*sim.Result, error) {
	var e entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("checkpoint: payload: %w", err)
	}
	if e.Spec != specKey || e.Result == nil {
		return nil, fmt.Errorf("checkpoint: entry is for spec %q, not %q", e.Spec, specKey)
	}
	return e.Result, nil
}

// lookup is the one tiered read behind load and loadBlob: the local
// Dir (a file that fails its frame check, or that accept cannot decode,
// is quarantined and reads as a miss), then the remote store, whose
// verified hit is adopted locally so the next read is a disk read.
// Damage is never trusted and never fatal: on false the caller recomputes.
func (d *diskCache) lookup(kind store.Kind, key string, accept func(payload []byte) error) bool {
	if _, payload, ok := d.local.Get(kind, key); ok {
		err := accept(payload)
		if err == nil {
			return true
		}
		d.local.Quarantine(kind, key, err)
	}
	if d.remote == nil {
		return false
	}
	// The remote holds the bare payload, which its own framing verified.
	payload, ok := d.remote.GetBlob(key)
	if !ok {
		return false
	}
	if err := accept(payload); err != nil {
		// The remote store quarantines on its own side.
		d.log.Warn("remote entry rejected", "key", key, "err", err)
		return false
	}
	d.remoteHits.Add(1)
	d.failed("adopting remote entry failed", kind, key, d.local.Put(kind, key, store.Frame(kind.Magic, payload)))
	return true
}

// failed reports whether a local write failed. Failures are non-fatal
// — a read-only or full disk degrades the cache to a no-op rather than
// failing the run that produced the result — but never invisible: each
// is counted (SessionStats.StoreFailures, /metrics) and logged.
func (d *diskCache) failed(what string, kind store.Kind, key string, err error) bool {
	if err != nil {
		d.storeFails.Add(1)
		d.log.Warn(what, "path", d.local.Path(kind, key), "err", err)
	}
	return err != nil
}

// push hands one value to the remote store, when one is attached, so
// every peer's next lookup is a hit.
func (d *diskCache) push(key string, value []byte) {
	if d.remote != nil {
		d.remote.PutBlob(key, value)
		d.remotePuts.Add(1)
	}
}

// load returns the cached result for key, or ok=false on any miss.
func (d *diskCache) load(key, specKey string) (res *sim.Result, ok bool) {
	ok = d.lookup(store.Checkpoint, key, func(payload []byte) (err error) {
		res, err = decodeEntry(payload, specKey)
		return err
	})
	return res, ok
}

// store checkpoints one result, locally and then (only once it is
// safely on the local disk) to the remote store.
func (d *diskCache) store(key, specKey string, res *sim.Result) {
	payload, err := json.Marshal(entry{Spec: specKey, Result: res})
	if err == nil {
		err = d.local.Put(store.Checkpoint, key, store.Frame(store.Checkpoint.Magic, payload))
	}
	if !d.failed("checkpoint store failed", store.Checkpoint, key, err) {
		d.push(key, payload)
	}
}

// loadBlob looks up the blob (a spilled warmup snapshot) under key and
// hands it to accept, which decodes it: a torn, bit-flipped or
// undecodable snapshot must not fork simulations.
func (d *diskCache) loadBlob(key string, accept func(payload []byte) error) bool {
	return d.lookup(store.Blob, key, accept)
}

// storeBlob persists an opaque blob under key and pushes it to the
// remote store.
func (d *diskCache) storeBlob(key string, payload []byte) {
	d.failed("snapshot blob store failed", store.Blob, key,
		d.local.Put(store.Blob, key, store.Frame(store.Blob.Magic, payload)))
	d.push(key, payload)
}
