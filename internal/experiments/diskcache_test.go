package experiments

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp/internal/chaos"
	"ipcp/internal/sim"
)

func testCache(t *testing.T) *diskCache {
	t.Helper()
	d, err := newDiskCache(t.TempDir(), slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testResult() *sim.Result {
	return &sim.Result{IPC: []float64{1.25}}
}

func TestFrameRoundTrip(t *testing.T) {
	e := entry{Spec: "spec-a", Result: testResult()}
	data, err := encodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != e.Spec || got.Result == nil || got.Result.IPC[0] != 1.25 {
		t.Fatalf("roundtrip = %+v", got)
	}
}

// TestQuarantine is the satellite table test: every damage mode moves
// the file to corrupt/ (counted), the slot reads as a miss, and the
// quarantined file is never re-read — a fresh store takes the slot.
func TestQuarantine(t *testing.T) {
	valid, err := encodeEntry(entry{Spec: "spec-a", Result: testResult()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", []byte(ckptMagic)},
		{"truncated-payload", chaos.Truncate(valid, len(valid)-7)},
		{"bit-flip-payload", chaos.FlipBits(valid, len(valid)-3, 0x40)},
		{"bit-flip-header", chaos.FlipBits(valid, 2, 0x01)},
		{"not-json-payload", []byte("garbage bytes, no magic")},
		{"legacy-corrupt", []byte("{not json")},
		{"legacy-valid", stripFrame(valid)},
		{"wrong-spec", mustEncode(t, entry{Spec: "other", Result: testResult()})},
		{"nil-result", mustEncode(t, entry{Spec: "spec-a"})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := testCache(t)
			key := "ab12"
			p := d.path(key)
			os.MkdirAll(filepath.Dir(p), 0o755)
			if err := os.WriteFile(p, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if res, ok := d.load(key, "spec-a"); ok {
				t.Fatalf("damaged entry served: %+v", res)
			}
			if n := d.quarantined.Load(); n != 1 {
				t.Fatalf("quarantined = %d, want 1", n)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("damaged file still at %s (err=%v)", p, err)
			}
			q := filepath.Join(d.quarantineDir(), filepath.Base(p))
			if _, err := os.Stat(q); err != nil {
				t.Fatalf("quarantined file missing from %s: %v", q, err)
			}

			// Never re-read: the slot is a plain miss now, and the
			// counter does not move again.
			if _, ok := d.load(key, "spec-a"); ok {
				t.Fatal("quarantined entry re-served")
			}
			if n := d.quarantined.Load(); n != 1 {
				t.Fatalf("second load re-quarantined (count %d)", n)
			}

			// A fresh store takes the slot cleanly.
			d.store(key, "spec-a", testResult())
			if _, ok := d.load(key, "spec-a"); !ok {
				t.Fatal("rewritten entry did not load")
			}
		})
	}
}

// stripFrame drops a frame's header line, leaving exactly what the
// pre-v2 format wrote: the bare JSON payload, with no length or CRC to
// vouch for it.
func stripFrame(framed []byte) []byte {
	return framed[bytes.IndexByte(framed, '\n')+1:]
}

func mustEncode(t *testing.T, e entry) []byte {
	t.Helper()
	data, err := encodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreFailureCountedAndLogged: a failing store degrades to a
// no-op but increments the counter and logs the path and error.
func TestStoreFailureCountedAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	d, err := newDiskCache(t.TempDir(), slog.New(slog.NewTextHandler(&logBuf, nil)))
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(1)
	in.Add(chaos.Rule{Point: "checkpoint.save", Kind: chaos.KindErr})
	chaos.Enable(in)
	t.Cleanup(func() { chaos.Enable(nil) })

	d.store("cd34", "spec", testResult())
	if n := d.storeFails.Load(); n != 1 {
		t.Fatalf("storeFails = %d, want 1", n)
	}
	log := logBuf.String()
	if !strings.Contains(log, "checkpoint store failed") ||
		!strings.Contains(log, "cd34.json") ||
		!strings.Contains(log, "input/output error") {
		t.Fatalf("store-failure log lacks path/error:\n%s", log)
	}
	if _, ok := d.load("cd34", "spec"); ok {
		t.Fatal("failed store produced a loadable entry")
	}
}

// TestShortWriteNeverServed: a torn checkpoint write (chaos short
// write on the temp file) must never produce a loadable entry, and the
// poison never lands under the final name.
func TestShortWriteNeverServed(t *testing.T) {
	d := testCache(t)
	in := chaos.New(1)
	in.Add(chaos.Rule{Point: "checkpoint.write", Kind: chaos.KindShort})
	chaos.Enable(in)
	t.Cleanup(func() { chaos.Enable(nil) })

	d.store("ef56", "spec", testResult())
	if n := d.storeFails.Load(); n != 1 {
		t.Fatalf("storeFails = %d, want 1", n)
	}
	if _, err := os.Stat(d.path("ef56")); !os.IsNotExist(err) {
		t.Fatalf("torn write landed under the final name (err=%v)", err)
	}
	chaos.Enable(nil)
	d.store("ef56", "spec", testResult())
	if _, ok := d.load("ef56", "spec"); !ok {
		t.Fatal("healthy rewrite did not load")
	}
}

// TestSessionStatsSurfaceDiskCounters: quarantines and store failures
// flow through SessionStats.
func TestSessionStatsSurfaceDiskCounters(t *testing.T) {
	s := NewSession(tiny)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := s.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workloads: []string{"bwaves-98"}}
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err)
	}
	// Strip the entry's frame, then reload through a fresh session.
	entries, _ := filepath.Glob(filepath.Join(s.disk.dir, "*", "*.json"))
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	framed, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], stripFrame(framed), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(tiny)
	s2.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := s2.SetCacheDir(s.disk.dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(spec); err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v, want 1 quarantine + 1 recompute", st)
	}
}

// FuzzCheckpointDecode throws truncations, bit flips and arbitrary
// bytes at the frame decoder: it must never panic, and any input it
// does accept must carry a self-consistent payload. Seeds cover the
// framed format, a frameless payload, and systematic damage.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := encodeEntry(entry{Spec: "fuzz-spec", Result: testResult()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(stripFrame(valid))
	f.Add([]byte(ckptMagic + " 3 00000000\nxyz"))
	f.Add([]byte(ckptMagic))
	f.Add([]byte("{"))
	for cut := 0; cut < len(valid); cut += 7 {
		f.Add(chaos.Truncate(valid, cut))
	}
	for off := 0; off < len(valid); off += 5 {
		f.Add(chaos.FlipBits(valid, off, 0x10))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err != nil {
			return
		}
		// Accepted: the payload must re-encode and re-decode to the
		// same spec — i.e. decode only ever yields frames encode could
		// have produced.
		re, encErr := encodeEntry(e)
		if encErr != nil {
			t.Fatalf("accepted entry does not re-encode: %v", encErr)
		}
		e2, decErr := decodeEntry(re)
		if decErr != nil || e2.Spec != e.Spec {
			t.Fatalf("re-decode mismatch: %v (spec %q != %q)", decErr, e2.Spec, e.Spec)
		}
	})
}

// FuzzCheckpointDecode's sibling invariant, checked exhaustively for
// single-bit flips: no single-bit corruption of a framed entry is ever
// accepted with altered content. (The CRC detects every payload flip;
// the only accepted header flips are hex-case changes that re-encode
// to the byte-identical canonical frame.)
func TestEveryBitFlipRejected(t *testing.T) {
	valid, err := encodeEntry(entry{Spec: "bits", Result: testResult()})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(valid); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := chaos.FlipBits(valid, off, 1<<bit)
			e, err := decodeEntry(mut)
			if err != nil {
				continue
			}
			re, err := encodeEntry(e)
			if err != nil || !bytes.Equal(re, valid) {
				t.Fatalf("flip at byte %d bit %d accepted with altered content (%v)", off, bit, err)
			}
		}
	}
}
