package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"

	"ipcp/internal/chaos"
)

// WriteFile puts data under path so that a crash at any step leaves
// either no file or the complete old or new one, never a torn one:
// temp file in the final directory (dot-prefixed, so no reader's glob
// matches it), write, fsync, close, atomic rename, directory fsync.
// chaosPoint names two injection sites: chaosPoint+".save" before
// anything touches the disk, chaosPoint+".write" around the bytes.
func WriteFile(path string, data []byte, chaosPoint string) error {
	if err := chaos.At(chaosPoint + ".save"); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = chaos.Writer(chaosPoint+".write", tmp).Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Best-effort: some filesystems refuse directory fsync.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Dir is a content-addressed directory of framed files, sharded by the
// first key byte to keep directories small:
//
//	<root>/<key[:2]>/<key><kind.Ext>     one frame per file
//	<root>/corrupt/<key><kind.Ext>       damage, moved aside, never re-read
//
// A key from outside the process must pass ValidKey before it reaches
// any method here.
type Dir struct {
	root       string
	chaosPoint string
	log        *slog.Logger

	quarantined atomic.Uint64
}

// OpenDir creates (if needed) the directory; writes go through
// WriteFile under chaosPoint.
func OpenDir(root, chaosPoint string, log *slog.Logger) (*Dir, error) {
	if root == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", root, err)
	}
	return &Dir{root: root, chaosPoint: chaosPoint, log: log}, nil
}

// ValidKey accepts only 64-char lowercase-hex SHA-256 content
// addresses — the only keys the cache layer generates — so a key taken
// from a request path can never traverse outside the directory.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Path is where key's file of the given kind lives.
func (d *Dir) Path(kind Kind, key string) string {
	return filepath.Join(d.root, key[:2], key+kind.Ext)
}

// Quarantined counts the damaged files moved aside so far.
func (d *Dir) Quarantined() uint64 { return d.quarantined.Load() }

// Get reads and verifies key's file, returning the stored frame
// verbatim and the payload inside it. Any miss is ok=false; a file that
// fails verification is quarantined first, never decoded.
func (d *Dir) Get(kind Kind, key string) (frame, payload []byte, ok bool) {
	frame, err := os.ReadFile(d.Path(kind, key))
	if err != nil {
		return nil, nil, false
	}
	payload, err = Unframe(kind.Magic, frame)
	if err != nil {
		d.Quarantine(kind, key, err)
		return nil, nil, false
	}
	return frame, payload, true
}

// Put stores frame, which the caller has framed, verbatim as key's file.
func (d *Dir) Put(kind Kind, key string, frame []byte) error {
	return WriteFile(d.Path(kind, key), frame, d.chaosPoint)
}

// Quarantine moves key's file into corrupt/: preserved for inspection,
// never read again, the slot free for a clean rewrite. Falls back to
// removal if the move itself fails.
func (d *Dir) Quarantine(kind Kind, key string, reason error) {
	p := d.Path(kind, key)
	qdir := filepath.Join(d.root, "corrupt")
	dst := filepath.Join(qdir, filepath.Base(p))
	d.quarantined.Add(1)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err = os.Rename(p, dst); err == nil {
			d.log.Warn("damaged entry quarantined", "path", p, "quarantine", dst, "err", reason)
			return
		}
	}
	os.Remove(p)
	d.log.Warn("damaged entry quarantined (removed: move failed)", "path", p, "err", reason)
}
