package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp/internal/chaos"
)

var kinds = []Kind{Checkpoint, Blob}

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// TestFrameRoundTrip: both codecs return exactly what went in, the
// text frame under either magic and never under the other one, and the
// byte layouts are the literal ones every existing file on disk has.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"spec":"spec-a","result":{"IPC":[1.25]}}`)
	for _, k := range kinds {
		got, err := Unframe(k.Magic, Frame(k.Magic, payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: roundtrip = %q, %v", k.Magic, got, err)
		}
	}
	if _, err := Unframe(Blob.Magic, Frame(Checkpoint.Magic, payload)); err == nil {
		t.Fatal("a checkpoint frame unframed as a blob")
	}
	if got, want := Frame(Blob.Magic, []byte("warmup snapshot bytes")),
		"ipcp-blob-v1 21 c0b6f627\nwarmup snapshot bytes"; string(got) != want {
		t.Fatalf("frame layout = %q, want %q", got, want)
	}

	// One record exactly as the pre-internal/store journal wrote it.
	start := `{"type":"start","time":"2026-01-02T03:04:06Z","job":"j000001"}`
	if got, want := AppendRecord(nil, []byte(start)), ">\x00\x00\x00\x1c@?\xc4"+start; string(got) != want {
		t.Fatalf("record layout = %q, want %q", got, want)
	}
	var wal []byte
	recs := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xA5}, 5000)}
	for _, r := range recs {
		wal = AppendRecord(wal, r)
	}
	for i, want := range recs {
		got, rest, err := NextRecord(wal)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q, %v", i, got, err)
		}
		wal = rest
	}
	if len(wal) != 0 {
		t.Fatalf("%d bytes left after the last record", len(wal))
	}
}

// TestEveryBitFlipRejected, exhaustively for single-bit flips of both
// codecs: no single-bit corruption is ever accepted with altered
// content. (The CRC detects every payload flip; the only accepted
// text-header flips are hex-case changes, which leave the payload and
// its canonical re-encoding byte-identical.)
func TestEveryBitFlipRejected(t *testing.T) {
	payload := []byte(`{"spec":"bits","result":{"IPC":[1.25]}}`)
	for _, k := range kinds {
		valid := Frame(k.Magic, payload)
		for off := 0; off < len(valid); off++ {
			for bit := 0; bit < 8; bit++ {
				got, err := Unframe(k.Magic, chaos.FlipBits(valid, off, 1<<bit))
				if err == nil && !bytes.Equal(Frame(k.Magic, got), valid) {
					t.Fatalf("%s: flip at byte %d bit %d accepted with altered content", k.Magic, off, bit)
				}
			}
		}
	}
	valid := AppendRecord(nil, payload)
	for off := 0; off < len(valid); off++ {
		for bit := 0; bit < 8; bit++ {
			if got, _, err := NextRecord(chaos.FlipBits(valid, off, 1<<bit)); err == nil {
				t.Fatalf("record: flip at byte %d bit %d accepted (%q)", off, bit, got)
			}
		}
	}
}

// TestNextRecordBounds: a length field past MaxRecord is refused from
// the header alone, whatever follows it.
func TestNextRecordBounds(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, MaxRecord+1)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	if _, _, err := NextRecord(hdr); err == nil {
		t.Fatal("a record claiming more than MaxRecord was accepted")
	}
	if _, _, err := NextRecord(AppendRecord(nil, []byte("torn"))[:10]); err == nil {
		t.Fatal("a torn record was accepted")
	}
}

// TestWriteFileChaos: when the write is cut short or fails, nothing
// appears under the final name and the temp file is removed; the old
// content, if any, survives.
func TestWriteFileChaos(t *testing.T) {
	for _, rule := range []chaos.Rule{
		{Point: "t.write", Kind: chaos.KindShort},
		{Point: "t.write", Kind: chaos.KindErr},
		{Point: "t.save", Kind: chaos.KindErr},
	} {
		dir := t.TempDir()
		p := filepath.Join(dir, "ab", "entry.json")
		if err := WriteFile(p, []byte("old"), "t"); err != nil {
			t.Fatal(err)
		}
		in := chaos.New(1)
		in.Add(rule)
		chaos.Enable(in)
		err := WriteFile(p, []byte("new content"), "t")
		chaos.Enable(nil)
		if err == nil {
			t.Fatalf("%+v: WriteFile succeeded under chaos", rule)
		}
		if got, _ := os.ReadFile(p); string(got) != "old" {
			t.Fatalf("%+v: final name holds %q, want the old content", rule, got)
		}
		if names, _ := filepath.Glob(filepath.Join(dir, "ab", "*")); len(names) != 1 {
			t.Fatalf("%+v: temp file left behind: %v", rule, names)
		}
	}
}

// TestDirQuarantine: a file that fails verification reads as a miss,
// moves to corrupt/ (counted once, never re-read), and a fresh Put
// takes the slot; when the move cannot happen the file is removed
// instead — either way it is never served.
func TestDirQuarantine(t *testing.T) {
	key := strings.Repeat("ab12", 16)
	valid := Frame(Blob.Magic, []byte("precious"))
	for _, moveFails := range []bool{false, true} {
		root := t.TempDir()
		d, err := OpenDir(root, "t", discard())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put(Blob, key, valid); err != nil {
			t.Fatal(err)
		}
		if frame, payload, ok := d.Get(Blob, key); !ok || !bytes.Equal(frame, valid) || string(payload) != "precious" {
			t.Fatalf("Get = %q, %q, %v", frame, payload, ok)
		}
		if _, _, ok := d.Get(Checkpoint, key); ok {
			t.Fatal("a blob was served as a checkpoint")
		}
		p := d.Path(Blob, key)
		if want := filepath.Join(root, "ab", key+".blob"); p != want {
			t.Fatalf("Path = %s, want %s", p, want)
		}
		if err := os.WriteFile(p, chaos.FlipBits(valid, len(valid)-1, 0xFF), 0o644); err != nil {
			t.Fatal(err)
		}
		if moveFails {
			// A regular file where corrupt/ should be: MkdirAll fails.
			if err := os.WriteFile(filepath.Join(root, "corrupt"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, ok := d.Get(Blob, key); ok {
			t.Fatal("damaged file served")
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("damaged file still in place (err=%v)", err)
		}
		_, err = os.Stat(filepath.Join(root, "corrupt", key+".blob"))
		if moveFails == (err == nil) {
			t.Fatalf("moveFails=%v but stat of the quarantined copy says %v", moveFails, err)
		}
		if _, _, ok := d.Get(Blob, key); ok || d.Quarantined() != 1 {
			t.Fatalf("second Get: ok=%v quarantined=%d, want a plain miss and 1", ok, d.Quarantined())
		}
		if !moveFails {
			if err := d.Put(Blob, key, valid); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := d.Get(Blob, key); !ok {
				t.Fatal("rewritten entry did not load")
			}
		}
	}
}

func TestValidKey(t *testing.T) {
	for key, want := range map[string]bool{
		strings.Repeat("0f", 32):        true,
		strings.Repeat("0F", 32):        false,
		strings.Repeat("0f", 31):        false,
		strings.Repeat("0f", 31) + "..": false,
		"..":                            false,
		"":                              false,
	} {
		if ValidKey(key) != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, !want, want)
		}
	}
}

// FuzzUnframe: never panic, and never return a payload the header does
// not vouch for — whatever is accepted is the input's tail, and the
// same header refuses that tail one bit different, one byte shorter or
// one byte longer. Seeds: a valid frame of each magic, a torn one, a
// length-lying one, systematic damage.
func FuzzUnframe(f *testing.F) {
	valid := Frame(Checkpoint.Magic, []byte(`{"spec":"fuzz","result":{"IPC":[1.25]}}`))
	f.Add(valid)
	f.Add(Frame(Blob.Magic, []byte("opaque")))
	f.Add(chaos.Truncate(valid, len(valid)-7))
	f.Add([]byte(Checkpoint.Magic + " 3 00000000\nxyz"))
	f.Add([]byte(Checkpoint.Magic + " 99 364b3fb7\nxyz"))
	f.Add([]byte(Checkpoint.Magic))
	for off := 0; off < len(valid); off += 5 {
		f.Add(chaos.FlipBits(valid, off, 0x10))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			payload, err := Unframe(k.Magic, data)
			if err != nil {
				continue
			}
			if !bytes.HasSuffix(data, payload) || data[len(data)-len(payload)-1] != '\n' {
				t.Fatalf("accepted payload %q is not the input's tail", payload)
			}
			if got, err := Unframe(k.Magic, Frame(k.Magic, payload)); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("accepted payload does not survive re-framing: %v", err)
			}
			if _, err := Unframe(k.Magic, append(data[:len(data):len(data)], 'x')); err == nil {
				t.Fatal("length not enforced: a longer payload passed under the same header")
			}
			if len(payload) == 0 {
				continue
			}
			if _, err := Unframe(k.Magic, data[:len(data)-1]); err == nil {
				t.Fatal("length not enforced: a shorter payload passed under the same header")
			}
			if _, err := Unframe(k.Magic, chaos.FlipBits(data, len(data)-1, 0x01)); err == nil {
				t.Fatal("CRC not enforced: a flipped payload passed under the same header")
			}
		}
	})
}

// FuzzNextRecord: never panic, and never return a payload whose CRC
// does not match the one in its header. Seeds: a valid record, a torn
// one, a length-lying one.
func FuzzNextRecord(f *testing.F) {
	valid := AppendRecord(AppendRecord(nil, []byte(`{"type":"submit","job":"j000001"}`)), []byte("second"))
	f.Add(valid)
	f.Add(chaos.Truncate(valid, len(valid)-3))
	f.Add(chaos.FlipBits(valid, 1, 0x40)) // length now claims 16 KiB more
	f.Add(chaos.FlipBits(valid, 3, 0x80)) // length past MaxRecord
	f.Add(chaos.FlipBits(valid, 20, 0x01))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) > 0 {
			payload, rest, err := NextRecord(data)
			if err != nil {
				return
			}
			if len(payload) > MaxRecord || len(payload)+len(rest)+recordHeader != len(data) {
				t.Fatalf("record of %d bytes + rest %d out of %d", len(payload), len(rest), len(data))
			}
			if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) ||
				uint32(len(payload)) != binary.LittleEndian.Uint32(data[0:4]) {
				t.Fatal("accepted record fails its own header")
			}
			data = rest
		}
	})
}
