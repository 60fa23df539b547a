package coord

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"ipcp/internal/store"
)

// This file is the coordinator's shared content-addressed result
// store: an HTTP blob interface over the checkpoint-store format, so
// any worker's finished checkpoint or warmup-snapshot spill becomes
// every other worker's disk hit. The wire format IS the disk format —
// one ipcp-blob-v1 CRC frame per blob — so integrity is verified at
// every hop: the worker frames before PUT, the coordinator verifies
// before persisting, verifies again on GET (quarantining damage), and
// the fetching worker verifies before adopting. A flipped bit anywhere
// along the path is detected, never decoded.

// BlobStore is the coordinator-side store: a store.Dir of blob frames
// (DESIGN §14) plus the request counters /metrics reports. Frames are
// verified on the way in and out and stored verbatim, never re-encoded.
type BlobStore struct {
	dir *store.Dir

	gets     atomic.Uint64 // GET requests served
	getHits  atomic.Uint64 // ... that found a verified blob
	puts     atomic.Uint64 // PUT requests accepted and persisted
	rejected atomic.Uint64 // PUTs refused (bad key, bad frame, too big)
}

// NewBlobStore creates (if needed) the store directory. The chaos
// points of every write are blob.save/blob.write.
func NewBlobStore(dir string, log *slog.Logger) (*BlobStore, error) {
	d, err := store.OpenDir(dir, "blob", log)
	if err != nil {
		return nil, fmt.Errorf("coord: blob store: %w", err)
	}
	return &BlobStore{dir: d}, nil
}

// get returns the stored frame for key after re-verifying it, or
// ok=false. A frame that fails verification is quarantined: bit rot on
// the coordinator's disk must not propagate to workers.
func (b *BlobStore) get(key string) ([]byte, bool) {
	b.gets.Add(1)
	frame, _, ok := b.dir.Get(store.Blob, key)
	if ok {
		b.getHits.Add(1)
	}
	return frame, ok
}

// has reports whether a blob is stored under key, without reading it.
func (b *BlobStore) has(key string) bool {
	_, err := os.Stat(b.dir.Path(store.Blob, key))
	return err == nil
}

// put verifies and persists one frame. The key is the run identity's
// content address (not the payload hash), so identity cannot be
// re-derived here; the frame's own CRC is the integrity gate.
func (b *BlobStore) put(key string, frame []byte) error {
	if _, err := store.Unframe(store.Blob.Magic, frame); err != nil {
		b.rejected.Add(1)
		return fmt.Errorf("coord: rejecting blob %s: %w", key[:8], err)
	}
	if err := b.dir.Put(store.Blob, key, frame); err != nil {
		b.rejected.Add(1)
		return fmt.Errorf("coord: storing blob %s: %w", key[:8], err)
	}
	b.puts.Add(1)
	return nil
}

// maxBlobBody caps a PUT body: warmup snapshots are a few MB per core,
// so 256 MiB is far above any legitimate blob while still bounding a
// hostile or buggy client.
const maxBlobBody = 256 << 20

// --- worker-side client ----------------------------------------------------

// BlobClient implements experiments.RemoteBlobs over the coordinator's
// blob API. Every error path degrades to a miss or a dropped write —
// an unreachable coordinator costs sharing, never correctness — and
// every fetched payload is CRC-verified before it is returned.
type BlobClient struct {
	base string // coordinator base URL, no trailing slash
	hc   *http.Client
	log  *slog.Logger
}

// NewBlobClient returns a client for the coordinator at base
// (e.g. "http://127.0.0.1:8800").
func NewBlobClient(base string, log *slog.Logger) *BlobClient {
	return &BlobClient{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
		log:  log,
	}
}

// GetBlob fetches and verifies one blob; any failure is a miss.
func (c *BlobClient) GetBlob(key string) ([]byte, bool) {
	resp, err := c.hc.Get(c.base + "/v1/blobs/" + key)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBody+1))
	if err != nil || len(frame) > maxBlobBody {
		return nil, false
	}
	payload, err := store.Unframe(store.Blob.Magic, frame)
	if err != nil {
		c.log.Warn("remote blob failed verification", "key", key[:8], "err", err)
		return nil, false
	}
	return payload, true
}

// PutBlob pushes one payload, framed, to the shared store. Best-effort:
// failures are logged and dropped.
func (c *BlobClient) PutBlob(key string, payload []byte) {
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/blobs/"+key,
		bytes.NewReader(store.Frame(store.Blob.Magic, payload)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		c.log.Warn("blob push failed", "key", key[:8], "err", err)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		c.log.Warn("blob push refused", "key", key[:8], "status", resp.StatusCode)
	}
}
