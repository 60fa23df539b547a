package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReader throws arbitrary bytes at both trace readers, routing by
// magic like Open does. Two invariants:
//
//  1. Neither reader panics or allocates proportionally to a corrupt
//     header's claims — any damage surfaces as an error.
//  2. Whatever parses cleanly must survive a write→read round trip
//     byte-identically (modulo the zero-target normalization the v1
//     format performs on non-branch records).
func FuzzReader(f *testing.F) {
	// Seed corpus: an empty trace, a small valid trace, a truncated
	// trace, a reserved-flags record, and a lying header.
	empty := func() []byte {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		w.Flush()
		return buf.Bytes()
	}()
	valid := func() []byte {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, in := range []Instr{
			{IP: 0x400000, Loads: [MaxLoads]uint64{0x10000}},
			{IP: 0x400004, IsBranch: true, Taken: true, Target: 0x400000},
			{IP: 0x400008, Stores: [MaxStores]uint64{0x20000}, DepPrev: true},
		} {
			in := in
			w.Write(&in)
		}
		w.Flush()
		return buf.Bytes()
	}()
	f.Add([]byte{})
	f.Add(empty)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	corruptFlags := bytes.Clone(valid)
	corruptFlags[16] |= flagsReserved
	f.Add(corruptFlags)
	lyingHeader := bytes.Clone(empty)
	lyingHeader[8] = 0xff
	lyingHeader[15] = 0xff
	f.Add(lyingHeader)

	// Binary (IPCPTRB2) seeds: empty, valid, truncated, flipped record
	// byte, flipped trailer byte, lying count.
	binInstrs := []Instr{
		{IP: 0x400000, Loads: [MaxLoads]uint64{0x10000}},
		{IP: 0x400004, IsBranch: true, Taken: true, Target: 0x400000},
		{IP: 0x400008, Stores: [MaxStores]uint64{0x20000}, DepPrev: true},
	}
	binValid := func() []byte {
		var buf bytes.Buffer
		w, _ := NewBinaryWriter(&buf)
		for i := range binInstrs {
			w.Write(&binInstrs[i])
		}
		w.Close()
		return buf.Bytes()
	}()
	binEmpty := func() []byte {
		var buf bytes.Buffer
		w, _ := NewBinaryWriter(&buf)
		w.Close()
		return buf.Bytes()
	}()
	f.Add(binEmpty)
	f.Add(binValid)
	f.Add(binValid[:len(binValid)-3])
	binFlipRec := bytes.Clone(binValid)
	binFlipRec[binHeaderSize+4] ^= 0xff
	f.Add(binFlipRec)
	binFlipTrailer := bytes.Clone(binValid)
	binFlipTrailer[len(binFlipTrailer)-1] ^= 0xff
	f.Add(binFlipTrailer)
	binLying := bytes.Clone(binValid)
	binLying[8] = 0xff
	f.Add(binLying)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 && [8]byte(data[:8]) == magic2 {
			fuzzBinary(t, data)
			return
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var parsed []Instr
		for {
			var in Instr
			if err := r.Read(&in); err != nil {
				if errors.Is(err, io.EOF) && !errors.Is(err, ErrCorrupt) {
					break
				}
				return // damaged input, correctly rejected
			}
			parsed = append(parsed, in)
			if len(parsed) > 1<<16 {
				return // enough; bound fuzz iteration time
			}
		}

		// Round trip: re-serialize and re-read; must match exactly.
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range parsed {
			// Normalize what the format cannot represent: Write derives
			// the flags from the fields, and a zero target is dropped.
			if err := w.Write(&parsed[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		for i := range parsed {
			var got Instr
			if err := r2.Read(&got); err != nil {
				t.Fatalf("re-read record %d: %v", i, err)
			}
			if got != parsed[i] {
				t.Fatalf("round trip record %d: got %+v want %+v", i, got, parsed[i])
			}
		}
		var extra Instr
		if err := r2.Read(&extra); !errors.Is(err, io.EOF) {
			t.Fatalf("expected EOF after %d records, got %v", len(parsed), err)
		}
	})
}

// fuzzBinary is FuzzReader's harness for IPCPTRB2 inputs: open, drain a
// cursor, and round-trip whatever parsed cleanly through a file. The
// binary format is exact — no normalization — so the round trip must be
// byte-identical.
func fuzzBinary(t *testing.T, data []byte) {
	b, err := NewBinary(data)
	if err != nil {
		return // damaged input, correctly rejected
	}
	s := b.Stream()
	var parsed []Instr
	var in Instr
	for s.Next(&in) {
		parsed = append(parsed, in)
		if len(parsed) > 1<<16 {
			return // enough; bound fuzz iteration time
		}
	}
	if s.Err() != nil {
		return // corrupt block or record, correctly rejected
	}
	if uint64(len(parsed)) != b.Count() {
		t.Fatalf("clean cursor read %d records of a declared %d", len(parsed), b.Count())
	}

	path := filepath.Join(t.TempDir(), "roundtrip.trb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewBinaryWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parsed {
		if err := w.Write(&parsed[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenBinary(path)
	if err != nil {
		t.Fatalf("re-reading own output: %v", err)
	}
	s2 := b2.Stream()
	for i := range parsed {
		var got Instr
		if !s2.Next(&got) {
			t.Fatalf("re-read stopped at record %d: %v", i, s2.Err())
		}
		if got != parsed[i] {
			t.Fatalf("round trip record %d: got %+v want %+v", i, got, parsed[i])
		}
	}
	if s2.Next(&in) {
		t.Fatalf("extra record after %d", len(parsed))
	}
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
}
