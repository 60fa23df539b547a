package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp/internal/chaos"
	"ipcp/internal/sim"
	"ipcp/internal/store"
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

// encodeEntry frames one checkpoint exactly as diskCache.store does.
func encodeEntry(e entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return store.Frame(store.Checkpoint.Magic, payload), nil
}

// mapBlobs is an in-memory RemoteBlobs.
type mapBlobs map[string][]byte

func (m mapBlobs) GetBlob(key string) ([]byte, bool) { v, ok := m[key]; return v, ok }
func (m mapBlobs) PutBlob(key string, v []byte)      { m[key] = v }

// TestQuarantine is the satellite table test: every damage mode moves
// the file to corrupt/ (counted), the slot reads as a miss — or, when a
// remote tier holds a good copy, as a remote hit that is re-adopted
// locally — and the quarantined file is never re-read: a fresh store
// takes the slot.
func TestQuarantine(t *testing.T) {
	valid, err := encodeEntry(entry{Spec: "spec-a", Result: testResult()})
	if err != nil {
		t.Fatal(err)
	}
	blob := store.Frame(store.Blob.Magic, []byte("snapshot bytes"))
	cases := []struct {
		name   string
		kind   store.Kind
		data   []byte
		remote []byte // the bare payload the remote tier holds for the key, if any
	}{
		{"empty", store.Checkpoint, nil, nil},
		{"truncated-header", store.Checkpoint, []byte(store.Checkpoint.Magic), nil},
		{"truncated-payload", store.Checkpoint, chaos.Truncate(valid, len(valid)-7), nil},
		{"bit-flip-payload", store.Checkpoint, chaos.FlipBits(valid, len(valid)-3, 0x40), nil},
		{"bit-flip-header", store.Checkpoint, chaos.FlipBits(valid, 2, 0x01), nil},
		{"not-json-payload", store.Checkpoint, []byte("garbage bytes, no magic"), nil},
		{"legacy-corrupt", store.Checkpoint, []byte("{not json"), nil},
		{"legacy-valid", store.Checkpoint, stripFrame(valid), nil},
		{"wrong-spec", store.Checkpoint, mustEncode(t, entry{Spec: "other", Result: testResult()}), nil},
		{"nil-result", store.Checkpoint, mustEncode(t, entry{Spec: "spec-a"}), nil},
		{"remote-good-copy", store.Checkpoint, chaos.FlipBits(valid, len(valid)-3, 0x40), stripFrame(valid)},
		{"blob-bit-flip", store.Blob, chaos.FlipBits(blob, len(blob)-3, 0x40), nil},
		{"blob-undecodable", store.Blob, store.Frame(store.Blob.Magic, []byte("not a snapshot")), nil},
		{"blob-remote-good-copy", store.Blob, chaos.FlipBits(blob, len(blob)-3, 0x40), []byte("snapshot bytes")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := testCache(t)
			key := "ab12"
			if c.remote != nil {
				d.remote = mapBlobs{key: c.remote}
			}
			load := func() bool {
				if c.kind == store.Blob {
					return d.loadBlob(key, func(got []byte) error {
						if string(got) != "snapshot bytes" {
							return errors.New("undecodable snapshot")
						}
						return nil
					})
				}
				res, ok := d.load(key, "spec-a")
				return ok && res.IPC[0] == 1.25
			}
			p := d.local.Path(c.kind, key)
			os.MkdirAll(filepath.Dir(p), 0o755)
			if err := os.WriteFile(p, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if hit := load(); hit != (c.remote != nil) {
				t.Fatalf("load over a damaged entry: hit=%v, want %v", hit, c.remote != nil)
			}
			if n := d.local.Quarantined(); n != 1 {
				t.Fatalf("quarantined = %d, want 1", n)
			}
			q := filepath.Join(filepath.Dir(filepath.Dir(p)), "corrupt", filepath.Base(p))
			if got, err := os.ReadFile(q); err != nil || !bytes.Equal(got, c.data) {
				t.Fatalf("damaged bytes not preserved in %s: %v", q, err)
			}
			if c.remote != nil {
				// Served from the remote tier and re-adopted: the local
				// slot now holds a good copy that loads on its own.
				if n := d.remoteHits.Load(); n != 1 {
					t.Fatalf("remoteHits = %d, want 1", n)
				}
				d.remote = nil
				if !load() {
					t.Fatal("remote hit was not re-adopted locally")
				}
				return
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("damaged file still at %s (err=%v)", p, err)
			}

			// Never re-read: the slot is a plain miss now, and the
			// counter does not move again.
			if load() {
				t.Fatal("quarantined entry re-served")
			}
			if n := d.local.Quarantined(); n != 1 {
				t.Fatalf("second load re-quarantined (count %d)", n)
			}

			// A fresh store takes the slot cleanly.
			if c.kind == store.Blob {
				d.storeBlob(key, []byte("snapshot bytes"))
			} else {
				d.store(key, "spec-a", testResult())
			}
			if !load() {
				t.Fatal("rewritten entry did not load")
			}
		})
	}
}

// TestRemoteHoldsBarePayloads: both kinds reach the remote tier as their
// bare payload (the remote frames it once, for its own transport), and
// a checkpoint blob framed twice, as earlier builds pushed it, reads as
// a miss and is never served.
func TestRemoteHoldsBarePayloads(t *testing.T) {
	d := testCache(t)
	remote := mapBlobs{}
	d.remote = remote
	d.store("ab12", "spec-a", testResult())
	d.storeBlob("cd34", []byte("snapshot bytes"))
	if res, err := decodeEntry(remote["ab12"], "spec-a"); err != nil || res.IPC[0] != 1.25 {
		t.Errorf("remote checkpoint is not the bare entry: %v (%q)", err, remote["ab12"])
	}
	if got := string(remote["cd34"]); got != "snapshot bytes" {
		t.Errorf("remote spill = %q, want the bare payload", got)
	}

	peer := testCache(t)
	peer.remote = mapBlobs{"ab12": store.Frame(store.Checkpoint.Magic, remote["ab12"])}
	if _, ok := peer.load("ab12", "spec-a"); ok {
		t.Error("a double-framed remote checkpoint was served")
	}
	peer.remote = remote
	if res, ok := peer.load("ab12", "spec-a"); !ok || res.IPC[0] != 1.25 {
		t.Error("a peer missed the pushed checkpoint")
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
	if _, err := os.Stat(d.local.Path(store.Checkpoint, "ef56")); !os.IsNotExist(err) {
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
	dir := t.TempDir()
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workloads: []string{"bwaves-98"}}
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	// Strip the entry's frame, then reload through a fresh session.
	entries, _ := filepath.Glob(filepath.Join(dir, "*", "*.json"))
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
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(spec); err != nil {
		t.Fatal(err)
	}
	s2.Flush()
	st := s2.Stats()
	if st.Quarantined != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v, want 1 quarantine + 1 recompute", st)
	}
}

// FuzzCheckpointDecode throws truncations, bit flips and arbitrary
// bytes at what load does to a file — unframe, parse the entry JSON,
// hold it to the spec identity: it must never panic, and any input it
// does accept must carry a self-consistent entry. (The frame codec has
// its own targets, store.FuzzUnframe and FuzzNextRecord; what this one
// adds is the checkpoint-specific half.) Seeds cover the framed format,
// a frameless payload, and systematic damage.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := encodeEntry(entry{Spec: "fuzz-spec", Result: testResult()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(stripFrame(valid))
	f.Add([]byte(store.Checkpoint.Magic + " 3 00000000\nxyz"))
	f.Add([]byte(store.Checkpoint.Magic))
	f.Add([]byte("{"))
	for cut := 0; cut < len(valid); cut += 7 {
		f.Add(chaos.Truncate(valid, cut))
	}
	for off := 0; off < len(valid); off += 5 {
		f.Add(chaos.FlipBits(valid, off, 0x10))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := store.Unframe(store.Checkpoint.Magic, data)
		if err != nil {
			return
		}
		var e entry
		if json.Unmarshal(payload, &e) != nil {
			return
		}
		res, err := decodeEntry(payload, e.Spec)
		if (err == nil) != (e.Result != nil) {
			t.Fatalf("decodeEntry under the entry's own spec: %v (result nil: %v)", err, e.Result == nil)
		}
		if _, err := decodeEntry(payload, e.Spec+"x"); err == nil {
			t.Fatal("entry accepted under another spec's identity")
		}
		if res == nil {
			return
		}
		// Accepted: the entry must re-encode and re-decode to the same
		// spec — i.e. load only ever yields entries store could have
		// produced.
		re, encErr := encodeEntry(entry{Spec: e.Spec, Result: res})
		if encErr != nil {
			t.Fatalf("accepted entry does not re-encode: %v", encErr)
		}
		rePayload, err := store.Unframe(store.Checkpoint.Magic, re)
		if err != nil {
			t.Fatalf("re-encoded entry does not unframe: %v", err)
		}
		if _, err := decodeEntry(rePayload, e.Spec); err != nil {
			t.Fatalf("re-decode mismatch: %v", err)
		}
	})
}

// parentResultJSON is what the pre-internal/store encoder marshalled
// for sim.Result{Cores: 1, Instructions: 20000, IPC: [1.25]}.
const parentResultJSON = `{"Cores":1,"Instructions":20000,"CyclesPerCore":null,"IPC":[1.25],"CoreStats":null,"L1I":null,"L1D":null,"L2":null,` +
	`"LLC":{"Access":[0,0,0,0,0],"Hit":[0,0,0,0,0],"Miss":[0,0,0,0,0],"MSHRMerges":0,"LatePrefetch":0,"PrefetchIssued":0,` +
	`"PrefetchDropPQFull":0,"PrefetchMSHRStall":0,"PrefetchDropUnmapped":0,"PrefetchFills":0,"PrefetchUseful":0,"UselessEvicted":0,` +
	`"IssuedByClass":[0,0,0,0,0],"FillsByClass":[0,0,0,0,0],"UsefulByClass":[0,0,0,0,0],"Writebacks":0,"DemandMissLatency":0,"DemandMissSamples":0},` +
	`"DRAM":{"Reads":0,"Writes":0,"RowHits":0,"RowMisses":0,"RowConflicts":0,"BusBusyCycles":0,"Cycles":0,"ReadQueueFullRejects":0,"WriteQueueFullRejects":0},` +
	`"IPCPL1":null,"IPCPL2":null}`

// TestCacheDirReadsParentLayout is the format-compatibility proof for
// the checkpoint cache: a cache dir laid down byte for byte as the
// pre-internal/store session wrote it at the `tiny` scale — paths and
// frames spelled out here, not produced by today's encoder — gives a
// checkpoint disk hit and a snapshot-spill hit, with nothing
// quarantined. (The spec string inside the entry, and the address
// derived from it, follow RunSpec.Key: the content-derived key replaced
// the 14-verb format, so a checkpoint written under that format is
// simply never looked up — the layout and framing are what is pinned.
// Likewise the spill sits at its `ipcp-snap-v3` address: an older
// spill — v1 replayed its streams rather than seeking them, v2 encoded
// line arrays field by field — is never looked up.)
func TestCacheDirReadsParentLayout(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"b8/b8f684310ab9583665c0a36558a30857d530a1f3a85af4510d641a7d4dd545aa.json": "ipcp-ckpt-v2 733 53516ad0\n" +
			`{"spec":"{\"workloads\":[\"bwaves-98\"]}","result":` + parentResultJSON + `}`,
		"53/5376673312813c615a648a83ca491185b5820d5daf0879ab7258458a42104d14.blob": "ipcp-blob-v1 21 c0b6f627\nwarmup snapshot bytes",
	}
	for rel, data := range files {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSession(tiny)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(RunSpec{Workloads: []string{"bwaves-98"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskHits != 1 || st.Executed != 0 || st.Quarantined != 0 ||
		res.Instructions != 20000 || res.IPC[0] != 1.25 {
		t.Fatalf("parent-written checkpoint not served from disk: stats %+v, result %+v", st, res)
	}
	var spill string
	if !s.disk.loadBlob(snapshotKey("wk"), func(p []byte) error { spill = string(p); return nil }) ||
		spill != "warmup snapshot bytes" {
		t.Fatalf("parent-written spill = %q", spill)
	}
}
