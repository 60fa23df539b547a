package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// genInstrs produces a deterministic pseudo-random instruction mix that
// exercises every field and flag combination.
func genInstrs(n int, seed int64) []Instr {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Instr, n)
	for i := range out {
		in := &out[i]
		in.IP = 0x400000 + uint64(rng.Intn(1<<20))*4
		switch rng.Intn(4) {
		case 0:
			in.Loads[0] = rng.Uint64()
			in.DepPrev = rng.Intn(2) == 0
		case 1:
			in.Loads[0] = rng.Uint64()
			in.Loads[1] = rng.Uint64()
		case 2:
			in.Stores[0] = rng.Uint64()
		case 3:
			in.IsBranch = true
			in.Taken = rng.Intn(2) == 0
			in.Target = 0x400000 + uint64(rng.Intn(1<<20))*4
		}
	}
	return out
}

// writeBinary serializes instrs into an in-memory binary image.
func writeBinary(t *testing.T, instrs []Instr) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if err := bw.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainBinary reads every record through a fresh cursor.
func drainBinary(t *testing.T, b *Binary) []Instr {
	t.Helper()
	s := b.Stream()
	var out []Instr
	var in Instr
	for s.Next(&in) {
		out = append(out, in)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return out
}

func equalInstrs(a, b []Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBinaryRoundTrip spans multiple CRC blocks (n > blockRecords) and
// demands exact record identity plus a clean looping Reset.
func TestBinaryRoundTrip(t *testing.T) {
	instrs := genInstrs(3*binBlockRecords/2, 42)
	buf := writeBinary(t, instrs)
	b, err := NewBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Count() != uint64(len(instrs)) {
		t.Fatalf("count = %d, want %d", b.Count(), len(instrs))
	}
	got := drainBinary(t, b)
	if !equalInstrs(got, instrs) {
		t.Fatal("binary round trip altered records")
	}

	// Reset replays from the top, like the simulator's looping streams.
	s := b.Stream()
	var in Instr
	for s.Next(&in) {
	}
	s.Reset()
	if !s.Next(&in) || in != instrs[0] {
		t.Fatal("Reset did not replay from record 0")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryEmpty round-trips a zero-record trace.
func TestBinaryEmpty(t *testing.T) {
	buf := writeBinary(t, nil)
	if len(buf) != binHeaderSize {
		t.Fatalf("empty trace is %d bytes, want %d", len(buf), binHeaderSize)
	}
	b, err := NewBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	var in Instr
	if s := b.Stream(); s.Next(&in) || s.Err() != nil {
		t.Fatal("empty trace yielded a record or an error")
	}
}

// TestBinaryTruncated chops the image at several points; every cut must
// surface ErrCorrupt at open (the size never matches the header's
// declared layout).
func TestBinaryTruncated(t *testing.T) {
	buf := writeBinary(t, genInstrs(100, 7))
	for _, cut := range []int{len(buf) - 1, len(buf) - 4, binHeaderSize + 10, binHeaderSize, 40, 8, 0} {
		if _, err := NewBinary(buf[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestBinaryBitFlips damages each structural region in turn and demands
// ErrCorrupt — from open for header, record and trailer damage, and from
// the cursor for a record whose reserved flag bits were forged past the
// block CRC.
func TestBinaryBitFlips(t *testing.T) {
	pristine := writeBinary(t, genInstrs(binBlockRecords+100, 9))
	recEnd := binHeaderSize + (binBlockRecords+100)*binRecordSize

	flip := func(off int) []byte {
		buf := append([]byte(nil), pristine...)
		buf[off] ^= 0x01
		return buf
	}

	t.Run("magic", func(t *testing.T) {
		buf := flip(0)
		if _, err := NewBinary(buf); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("header", func(t *testing.T) {
		for _, off := range []int{8, 16, 20, 24, 56} { // count, recordSize, blockRecords, sourceHash, headerCRC
			buf := flip(off)
			if _, err := NewBinary(buf); !errors.Is(err, ErrCorrupt) {
				t.Errorf("flip at %d: got %v, want ErrCorrupt", off, err)
			}
		}
	})
	// atOpen demands ErrCorrupt from NewBinary over buf and from
	// OpenBinary over a file holding it.
	atOpen := func(t *testing.T, buf []byte) {
		t.Helper()
		if _, err := NewBinary(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("NewBinary: got %v, want ErrCorrupt", err)
		}
		path := filepath.Join(t.TempDir(), "flip.trb")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBinary(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("OpenBinary: got %v, want ErrCorrupt", err)
		}
	}
	t.Run("record", func(t *testing.T) {
		// One flip in each CRC block; every block is checked at open.
		for _, off := range []int{binHeaderSize + 5, binHeaderSize + binBlockRecords*binRecordSize + 5} {
			atOpen(t, flip(off))
		}
	})
	t.Run("trailer", func(t *testing.T) {
		atOpen(t, flip(recEnd+1))
	})
	t.Run("reserved-flags", func(t *testing.T) {
		// Set a reserved flag bit and forge the block CRC so only the
		// record-level validation can catch it.
		buf := append([]byte(nil), pristine...)
		buf[binHeaderSize+40] |= 0x80
		blockLen := binBlockRecords * binRecordSize
		crc := crc32.Checksum(buf[binHeaderSize:binHeaderSize+blockLen], binCRCTable)
		binary.LittleEndian.PutUint32(buf[recEnd:], crc)
		b, err := NewBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		s := b.Stream()
		var in Instr
		if s.Next(&in) {
			t.Fatal("record with reserved flag bits decoded")
		}
		if err := s.Err(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestBinaryConcurrentCursors runs many cursors over one shared Binary;
// under -race this fails if cursors share mutable state, and each
// cursor must still see the exact record sequence.
func TestBinaryConcurrentCursors(t *testing.T) {
	instrs := genInstrs(2*binBlockRecords+17, 11)
	buf := writeBinary(t, instrs)
	b, err := NewBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	const cursors = 8
	var wg sync.WaitGroup
	errs := make([]error, cursors)
	for c := 0; c < cursors; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := b.Stream()
			var in Instr
			for i := 0; s.Next(&in); i++ {
				if in != instrs[i] {
					errs[c] = errors.New("record mismatch")
					return
				}
			}
			errs[c] = s.Err()
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("cursor %d: %v", c, err)
		}
	}
}

// writeV1File writes instrs to path in the v1 format.
func writeV1File(t *testing.T, path string, instrs []Instr) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenAutoDetect pins Open's magic routing: a binary file opens
// directly, a v1 file converts in memory and leaves no file behind,
// garbage is rejected.
func TestOpenAutoDetect(t *testing.T) {
	dir := t.TempDir()
	instrs := genInstrs(500, 3)

	binPath := filepath.Join(dir, "direct.trb")
	if err := os.WriteFile(binPath, writeBinary(t, instrs), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !equalInstrs(drainBinary(t, b), instrs) {
		t.Fatal("binary open altered records")
	}

	v1Path := filepath.Join(dir, "src.trc")
	writeV1File(t, v1Path, instrs)
	v, err := Open(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if !equalInstrs(drainBinary(t, v), instrs) {
		t.Fatal("v1 open altered records")
	}
	if _, err := os.Stat(v1Path + ".bin"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("opening a v1 trace left %s.bin behind (stat: %v)", v1Path, err)
	}

	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("NOTATRACE-------"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage open: got %v, want ErrBadMagic", err)
	}
}

// TestOpenCorruptV1Source must refuse to build a sidecar from a damaged
// source rather than caching the damage.
func TestOpenCorruptV1Source(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trc")
	writeV1File(t, path, genInstrs(100, 6))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record while keeping the declared count.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path + ".bin"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("a sidecar was cached for a corrupt source")
	}
}
