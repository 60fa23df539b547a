package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripBasic(t *testing.T) {
	instrs := []Instr{
		{IP: 0x400000},
		{IP: 0x400004, Loads: [MaxLoads]uint64{0x10000, 0}},
		{IP: 0x400008, Loads: [MaxLoads]uint64{0x10040, 0x20000}},
		{IP: 0x40000c, Stores: [MaxStores]uint64{0x30000}},
		{IP: 0x400010, IsBranch: true, Taken: true, Target: 0x400000},
		{IP: 0x400014, IsBranch: true, Taken: false},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
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
	if w.Count() != uint64(len(instrs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(instrs))
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		var got Instr
		if err := r.Read(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != instrs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got, instrs[i])
		}
	}
	var extra Instr
	if err := r.Read(&extra); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("NOTATRACE-------")
	if _, err := NewReader(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("expected ErrBadMagic, got %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := Instr{IP: 1, Loads: [MaxLoads]uint64{42}}
	w.Write(&in)
	w.Flush()
	b := buf.Bytes()
	r, err := NewReader(bytes.NewReader(b[:len(b)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var got Instr
	if err := r.Read(&got); err == nil {
		t.Error("expected error on truncated record")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ip, l0, l1, s0, target uint64, branch, taken bool) bool {
		in := Instr{IP: ip, IsBranch: branch, Taken: taken}
		in.Loads[0], in.Loads[1], in.Stores[0] = l0, l1, s0
		if branch {
			in.Target = target
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		if err := w.Write(&in); err != nil {
			return false
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var got Instr
		if err := r.Read(&got); err != nil {
			return false
		}
		// Zero operands are not distinguishable from absent operands,
		// and a zero target is not persisted: normalize.
		want := in
		if want.Target == 0 {
			want.Target = 0
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSliceStream(t *testing.T) {
	instrs := []Instr{{IP: 1}, {IP: 2}, {IP: 3}}
	s := &SliceStream{Instrs: instrs}
	got := Collect(s, 10)
	if len(got) != 3 {
		t.Fatalf("collected %d, want 3", len(got))
	}
	s.Reset()
	var in Instr
	if !s.Next(&in) || in.IP != 1 {
		t.Errorf("after Reset, first = %+v", in)
	}
}

func TestSliceStreamLoop(t *testing.T) {
	s := &SliceStream{Instrs: []Instr{{IP: 1}, {IP: 2}}, Loop: true}
	got := Collect(s, 5)
	wantIPs := []uint64{1, 2, 1, 2, 1}
	for i, w := range wantIPs {
		if got[i].IP != w {
			t.Errorf("loop[%d].IP = %d, want %d", i, got[i].IP, w)
		}
	}
}

func TestSliceStreamSeek(t *testing.T) {
	instrs := []Instr{{IP: 1}, {IP: 2}, {IP: 3}}
	a := &SliceStream{Instrs: instrs, Loop: true}
	Collect(a, 5)
	b := &SliceStream{Instrs: instrs, Loop: true}
	if err := b.Seek(a.Position(), 5); err != nil {
		t.Fatal(err)
	}
	if got, want := Collect(b, 4), Collect(a, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("after Seek: %+v, want %+v", got, want)
	}
	for _, p := range []Position{{Cursor: []uint64{4}}, {Cursor: nil}, {Seed: 1, Cursor: []uint64{0}}, {Draws: 1, Cursor: []uint64{0}}} {
		if err := b.Seek(p, 5); err == nil {
			t.Errorf("Seek accepted %+v", p)
		}
	}
}

func TestSliceStreamEmpty(t *testing.T) {
	s := &SliceStream{Loop: true}
	var in Instr
	if s.Next(&in) {
		t.Error("empty looped stream must not produce instructions")
	}
}

func TestLargeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	var want []Instr
	for i := 0; i < 5000; i++ {
		in := Instr{IP: rng.Uint64() | 1}
		if rng.Intn(2) == 0 {
			in.Loads[0] = rng.Uint64() | 1
		}
		if rng.Intn(4) == 0 {
			in.Stores[0] = rng.Uint64() | 1
		}
		if rng.Intn(5) == 0 {
			in.IsBranch = true
			in.Taken = rng.Intn(2) == 0
			in.Target = rng.Uint64() | 1
		}
		want = append(want, in)
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		var got Instr
		if err := r.Read(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadAllRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	want := []Instr{
		{IP: 1, Loads: [MaxLoads]uint64{0x40}},
		{IP: 2, Stores: [MaxStores]uint64{0x80}, DepPrev: false},
		{IP: 3, Loads: [MaxLoads]uint64{0xc0}, DepPrev: true},
	}
	for i := range want {
		if err := w.Write(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	s, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(s, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Looping: a fourth read wraps around.
	var in Instr
	if !s.Next(&in) || in.IP != 1 {
		t.Error("ReadAll stream does not loop")
	}
}

func TestTruncatedHeader(t *testing.T) {
	r, err := NewReader(bytes.NewReader(magic[:5]))
	if r != nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated header: got reader=%v err=%v, want ErrCorrupt", r, err)
	}
}

func TestReservedFlagBits(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := Instr{IP: 1}
	w.Write(&in)
	w.Flush()
	b := buf.Bytes()
	b[16] |= flagsReserved // corrupt the first record's flags byte
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var got Instr
	err = r.Read(&got)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reserved flags: got %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "byte 16") {
		t.Errorf("error lacks byte-offset context: %v", err)
	}
	// The error must be sticky.
	if err2 := r.Read(&got); !errors.Is(err2, ErrCorrupt) {
		t.Errorf("second Read after corruption: got %v, want sticky ErrCorrupt", err2)
	}
}

func TestTruncatedMidRecordIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := Instr{IP: 1, Loads: [MaxLoads]uint64{42}}
	w.Write(&in)
	w.Flush()
	b := buf.Bytes()
	r, err := NewReader(bytes.NewReader(b[:len(b)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var got Instr
	if err := r.Read(&got); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-record truncation: got %v, want ErrCorrupt", err)
	}
}

func TestDeclaredCountTruncation(t *testing.T) {
	// A header declaring 3 records over a body holding 1 must read as
	// truncation (ErrCorrupt), not a clean EOF.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := Instr{IP: 1}
	w.Write(&in)
	w.Flush()
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[8:], 3)
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if r.Declared() != 3 {
		t.Fatalf("Declared = %d, want 3", r.Declared())
	}
	var got Instr
	if err := r.Read(&got); err != nil {
		t.Fatal(err)
	}
	err = r.Read(&got)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short of declared count: got %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "1 of 3") {
		t.Errorf("truncation error lacks counts: %v", err)
	}
}

func TestReadAllBoundsPrealloc(t *testing.T) {
	// A header claiming 2^60 records over an empty body must fail with
	// ErrCorrupt without attempting a gigantic allocation.
	var hdr [16]byte
	copy(hdr[:], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], 1<<60)
	if _, err := ReadAll(bytes.NewReader(hdr[:])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("absurd declared count: got %v, want ErrCorrupt", err)
	}
}

func TestReaderOffset(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := Instr{IP: 1} // flags byte + IP = 9 bytes
	w.Write(&in)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offset() != 16 {
		t.Errorf("Offset after header = %d, want 16", r.Offset())
	}
	var got Instr
	if err := r.Read(&got); err != nil {
		t.Fatal(err)
	}
	if r.Offset() != 25 {
		t.Errorf("Offset after one record = %d, want 25", r.Offset())
	}
}

func TestDepPrevPersisted(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := Instr{IP: 9, Loads: [MaxLoads]uint64{0x140}, DepPrev: true}
	w.Write(&in)
	w.Flush()
	r, _ := NewReader(&buf)
	var got Instr
	if err := r.Read(&got); err != nil {
		t.Fatal(err)
	}
	if !got.DepPrev {
		t.Error("DepPrev lost in serialization")
	}
}
