package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"

	"ipcp/internal/chaos"
	"ipcp/internal/sim"
)

// diskCache is the Session's persistent checkpoint store: one framed
// JSON file per simulation result, content-addressed by the SHA-256 of
// the run's full identity (workload + configuration + scale). An
// interrupted or crashed experiment invocation resumes by pointing a
// new session at the same directory; completed runs load from disk and
// only the missing ones recompute. Simulations are deterministic, so a
// resumed session reproduces byte-identical tables.
//
// The cache is defensive end to end. Every entry is length-framed and
// CRC-checksummed, so a torn, truncated or bit-flipped file is
// *detected* on load — never decoded as garbage — and quarantined into
// a corrupt/ subdirectory for inspection (surfaced by a counter and a
// warning log) while the run silently recomputes. Writes go through a
// temp file that is fsynced before an atomic rename, so a crash
// mid-store can never leave a half-written entry under the final name,
// and a crash right after the rename still finds the full frame on
// disk.
type diskCache struct {
	dir string
	log *slog.Logger

	// remote, when attached, is a shared second-level store (the
	// coordinator's content-addressed blob service): local misses fall
	// through to it, and every local write is pushed to it, so any
	// worker's checkpoint or warmup spill is every worker's disk hit.
	remote RemoteBlobs

	// quarantined counts corrupt entries moved aside on load;
	// storeFails counts checkpoint writes that failed (non-fatally).
	// Surfaced through SessionStats and the daemon's /metrics.
	quarantined atomic.Uint64
	storeFails  atomic.Uint64
	remoteHits  atomic.Uint64
	remotePuts  atomic.Uint64
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

// newDiskCache creates (if needed) and validates the cache directory.
func newDiskCache(dir string, log *slog.Logger) (*diskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiments: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: creating cache dir: %w", err)
	}
	if log == nil {
		log = slog.Default()
	}
	return &diskCache{dir: dir, log: log}, nil
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

// entry is the on-disk payload: the spec key is stored alongside the
// result so a (vanishingly unlikely) hash collision or a stale file
// from an older key scheme is detected instead of silently served.
type entry struct {
	Spec   string      `json:"spec"`
	Result *sim.Result `json:"result"`
}

// The frame wrapping every checkpoint payload: a one-line text header
// carrying the payload length and CRC, then the JSON payload itself.
// Headers are text (not binary) so a checkpoint file stays inspectable
// with cat, and the file keeps its .json name for existing tooling.
//
//	ipcp-ckpt-v2 <payload-bytes> <crc32c-hex>\n{...payload...}
const ckptMagic = "ipcp-ckpt-v2"

// crcTable is Castagnoli, hardware-accelerated on every modern CPU.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeEntry frames one payload for disk.
func encodeEntry(e entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d %08x\n", ckptMagic, len(payload), crc32.Checksum(payload, crcTable))
	buf.Write(payload)
	return buf.Bytes(), nil
}

// decodeEntry verifies a frame and returns its payload. Every damage
// mode (missing frame, truncated header, short payload, trailing
// garbage, CRC mismatch, malformed JSON) is an error, never a garbage
// entry.
func decodeEntry(data []byte) (entry, error) {
	var e entry
	if !bytes.HasPrefix(data, []byte(ckptMagic+" ")) {
		return e, fmt.Errorf("checkpoint: bad magic")
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return e, fmt.Errorf("checkpoint: truncated header")
	}
	var n int
	var crc uint32
	if _, err := fmt.Sscanf(string(data[:nl]), ckptMagic+" %d %08x", &n, &crc); err != nil {
		return e, fmt.Errorf("checkpoint: malformed header: %w", err)
	}
	payload := data[nl+1:]
	if n < 0 || len(payload) != n {
		return e, fmt.Errorf("checkpoint: payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return e, fmt.Errorf("checkpoint: crc mismatch (%08x != %08x)", got, crc)
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, fmt.Errorf("checkpoint: payload: %w", err)
	}
	return e, nil
}

// path shards entries by the first key byte to keep directories small.
func (d *diskCache) path(key string) string {
	return filepath.Join(d.dir, key[:2], key+".json")
}

// blobPath is where opaque binary blobs (spilled warmup snapshots)
// live, sharded like result entries but with an extension that says
// "not JSON".
func (d *diskCache) blobPath(key string) string {
	return filepath.Join(d.dir, key[:2], key+".blob")
}

// The frame wrapping a binary blob: same one-line text header as
// checkpoint entries, binary payload.
//
//	ipcp-blob-v1 <payload-bytes> <crc32c-hex>\n<...payload...>
const blobMagic = "ipcp-blob-v1"

// loadBlob returns the blob stored under key, or ok=false on any miss.
// Like result entries, damage is quarantined and recomputed, never
// decoded: a torn or bit-flipped snapshot must not fork simulations.
// A local miss falls through to the remote store; a remote hit is
// adopted locally so the next load is a disk read.
func (d *diskCache) loadBlob(key string) ([]byte, bool) {
	p := d.blobPath(key)
	data, err := os.ReadFile(p)
	if err != nil {
		if d.remote == nil {
			return nil, false
		}
		payload, ok := d.remote.GetBlob(key)
		if !ok {
			return nil, false
		}
		d.remoteHits.Add(1)
		d.writeBlobLocal(p, payload)
		return payload, true
	}
	payload, err := decodeBlob(data)
	if err != nil {
		d.quarantine(p, err)
		return nil, false
	}
	return payload, true
}

// DecodeBlobFrame verifies an ipcp-blob-v1 frame and returns its
// payload. Exported for the coordinator's HTTP blob store, which
// speaks the same framing on the wire as the cache does on disk.
func DecodeBlobFrame(data []byte) ([]byte, error) { return decodeBlob(data) }

// EncodeBlobFrame wraps a payload in the ipcp-blob-v1 frame.
func EncodeBlobFrame(payload []byte) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d %08x\n", blobMagic, len(payload), crc32.Checksum(payload, crcTable))
	buf.Write(payload)
	return buf.Bytes()
}

// decodeBlob verifies a blob frame and returns its payload.
func decodeBlob(data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(blobMagic+" ")) {
		return nil, fmt.Errorf("blob: bad magic")
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("blob: truncated header")
	}
	var n int
	var crc uint32
	if _, err := fmt.Sscanf(string(data[:nl]), blobMagic+" %d %08x", &n, &crc); err != nil {
		return nil, fmt.Errorf("blob: malformed header: %w", err)
	}
	payload := data[nl+1:]
	if n < 0 || len(payload) != n {
		return nil, fmt.Errorf("blob: payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("blob: crc mismatch (%08x != %08x)", got, crc)
	}
	return payload, nil
}

// storeBlob persists an opaque blob under key with the same
// non-fatal-but-counted failure policy and tmp+fsync+rename durability
// as result entries, then pushes it to the shared remote store (when
// one is attached) so every peer's next load is a hit.
func (d *diskCache) storeBlob(key string, payload []byte) {
	d.writeBlobLocal(d.blobPath(key), payload)
	if d.remote != nil {
		d.remote.PutBlob(key, payload)
		d.remotePuts.Add(1)
	}
}

// writeBlobLocal frames and writes one blob to the local disk only.
func (d *diskCache) writeBlobLocal(p string, payload []byte) {
	if err := d.writeFile(p, EncodeBlobFrame(payload)); err != nil {
		d.storeFails.Add(1)
		d.log.Warn("snapshot blob store failed", "path", p, "err", err)
	}
}

// quarantineDir is where damaged entries are moved, never re-read.
func (d *diskCache) quarantineDir() string { return filepath.Join(d.dir, "corrupt") }

// quarantine moves a damaged entry aside so it is preserved for
// inspection but can never be decoded again; the rewritten entry gets
// a clean slot. Falls back to removal if the move itself fails.
func (d *diskCache) quarantine(p string, reason error) {
	dst := filepath.Join(d.quarantineDir(), filepath.Base(p))
	if err := os.MkdirAll(d.quarantineDir(), 0o755); err == nil {
		err = os.Rename(p, dst)
		if err == nil {
			d.quarantined.Add(1)
			d.log.Warn("checkpoint quarantined", "path", p, "quarantine", dst, "err", reason)
			return
		}
	}
	os.Remove(p)
	d.quarantined.Add(1)
	d.log.Warn("checkpoint quarantined (removed: move failed)", "path", p, "err", reason)
}

// load returns the cached result for key, or ok=false on any miss.
// Damage is quarantined, not trusted: a file that fails the frame
// check moves to corrupt/ and the caller recomputes. Local misses
// (including just-quarantined entries) fall through to the remote
// store; a verified remote hit is adopted into the local cache.
func (d *diskCache) load(key, specKey string) (*sim.Result, bool) {
	p := d.path(key)
	data, err := os.ReadFile(p)
	if err == nil {
		e, err := decodeEntry(data)
		switch {
		case err != nil:
			d.quarantine(p, err)
		case e.Spec != specKey || e.Result == nil:
			d.quarantine(p, fmt.Errorf("checkpoint: entry is for spec %q, not %q", e.Spec, specKey))
		default:
			return e.Result, true
		}
	}
	if d.remote == nil {
		return nil, false
	}
	// The remote payload is the full checkpoint frame, so the same
	// header/CRC/spec-identity checks gate it; a damaged remote entry
	// is ignored (the remote store quarantines on its own side).
	frame, ok := d.remote.GetBlob(key)
	if !ok {
		return nil, false
	}
	e, err := decodeEntry(frame)
	if err != nil || e.Spec != specKey || e.Result == nil {
		d.log.Warn("remote checkpoint rejected", "key", key, "err", err)
		return nil, false
	}
	d.remoteHits.Add(1)
	if err := d.writeFile(p, frame); err != nil {
		d.storeFails.Add(1)
		d.log.Warn("adopting remote checkpoint failed", "path", p, "err", err)
	}
	return e.Result, true
}

// store checkpoints one result. Failures are deliberately non-fatal —
// a read-only or full disk degrades the cache to a no-op rather than
// failing the run that produced the result — but never invisible:
// each failure is counted (SessionStats.StoreFailures, /metrics) and
// logged with the path and error.
//
// Durability discipline: the frame is written to a temp file in the
// final directory, fsynced, closed, and only then renamed over the
// final name. A crash at any point leaves either no entry or the
// complete old/new entry — never a torn one under the final name.
func (d *diskCache) store(key, specKey string, res *sim.Result) {
	p := d.path(key)
	data, err := encodeEntry(entry{Spec: specKey, Result: res})
	if err == nil {
		err = d.writeFile(p, data)
	}
	if err != nil {
		d.storeFails.Add(1)
		d.log.Warn("checkpoint store failed", "path", p, "err", err)
		return
	}
	if d.remote != nil {
		d.remote.PutBlob(key, data)
		d.remotePuts.Add(1)
	}
}

// writeFile is the shared durable-write discipline: chaos injection
// point, temp file in the final directory, write, fsync, close, atomic
// rename, directory fsync.
func (d *diskCache) writeFile(p string, data []byte) error {
	if err := chaos.At("checkpoint.save"); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+filepath.Base(p)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := chaos.Writer("checkpoint.write", tmp).Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(filepath.Dir(p))
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
