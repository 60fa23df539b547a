package memsys

import (
	"testing"
	"testing/quick"
)

func TestBlockAlign(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 64},
		{65, 64},
		{0xdeadbeef, 0xdeadbeef &^ 63},
	}
	for _, c := range cases {
		if got := BlockAlign(c.in); got != c.want {
			t.Errorf("BlockAlign(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestPageGeometry(t *testing.T) {
	if LinesPerPage != 64 {
		t.Fatalf("LinesPerPage = %d, want 64", LinesPerPage)
	}
	if PageOffsetLine(0) != 0 {
		t.Errorf("PageOffsetLine(0) = %d", PageOffsetLine(0))
	}
	if PageOffsetLine(4095) != 63 {
		t.Errorf("PageOffsetLine(4095) = %d, want 63", PageOffsetLine(4095))
	}
	if PageOffsetLine(4096) != 0 {
		t.Errorf("PageOffsetLine(4096) = %d, want 0", PageOffsetLine(4096))
	}
	if !SamePage(4096, 8191) {
		t.Error("SamePage(4096, 8191) = false, want true")
	}
	if SamePage(4095, 4096) {
		t.Error("SamePage(4095, 4096) = true, want false")
	}
}

func TestAccessTypeIsDemand(t *testing.T) {
	demand := map[AccessType]bool{
		Load: true, RFO: true, CodeRead: true,
		Prefetch: false, Writeback: false,
	}
	for typ, want := range demand {
		if got := typ.IsDemand(); got != want {
			t.Errorf("%v.IsDemand() = %v, want %v", typ, got, want)
		}
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	cases := []Metadata{
		{ClassNone, 0},
		{ClassCS, 1},
		{ClassCS, -1},
		{ClassCS, 63},
		{ClassCS, -64},
		{ClassGS, 1},
		{ClassGS, -1},
		{ClassNL, 0},
	}
	for _, m := range cases {
		got := DecodeMetadata(m.Encode())
		if got != m {
			t.Errorf("round trip %+v -> %#x -> %+v", m, m.Encode(), got)
		}
	}
}

func TestMetadataEncodeWidth(t *testing.T) {
	// The wire format must fit in 9 bits, per the paper.
	f := func(cls uint8, stride int8) bool {
		m := Metadata{Class: PrefetchClass(cls%4) + 0, Stride: stride}
		if m.Stride < -64 || m.Stride > 63 {
			return true // outside the representable 7-bit range
		}
		return m.Encode() < 1<<9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetadataRoundTripProperty(t *testing.T) {
	f := func(clsRaw uint8, stride int8) bool {
		var cls PrefetchClass
		switch clsRaw % 4 {
		case 0:
			cls = ClassNone
		case 1:
			cls = ClassCS
		case 2:
			cls = ClassGS
		case 3:
			cls = ClassNL
		}
		if stride < -64 || stride > 63 {
			return true
		}
		m := Metadata{Class: cls, Stride: stride}
		if cls == ClassNone {
			// ClassNone does not preserve the stride on the wire;
			// only the class must survive.
			return DecodeMetadata(m.Encode()).Class == ClassNone ||
				DecodeMetadata(m.Encode()).Stride == stride
		}
		return DecodeMetadata(m.Encode()) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelL1D: "L1D", LevelL2: "L2", LevelLLC: "LLC", LevelDRAM: "DRAM",
	} {
		if l.String() != want {
			t.Errorf("Level %d String = %q, want %q", l, l.String(), want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[PrefetchClass]string{
		ClassCS: "CS", ClassCPLX: "CPLX", ClassGS: "GS", ClassNL: "NL", ClassNone: "none",
	} {
		if c.String() != want {
			t.Errorf("class String = %q, want %q", c.String(), want)
		}
	}
}

func TestRequestHelpers(t *testing.T) {
	r := &Request{Addr: 0x12345, Type: Prefetch}
	if !r.IsPrefetch() {
		t.Error("IsPrefetch false for prefetch")
	}
	if r.Block() != 0x12340 {
		t.Errorf("Block = %#x", r.Block())
	}
	d := &Request{Type: Load}
	if d.IsPrefetch() {
		t.Error("IsPrefetch true for load")
	}
}

func TestBlockNumberRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		return BlockNumber(a)<<BlockBits == BlockAlign(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessTypeStrings(t *testing.T) {
	for typ, want := range map[AccessType]string{
		Load: "load", RFO: "rfo", Prefetch: "prefetch",
		Writeback: "writeback", CodeRead: "code",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

// TestWakeZeroValueIsDue pins the property restores and fresh builds
// rely on: a component nobody armed yet is due at any cycle, arming and
// lowering only ever move the wake time the way their names say, and
// MarkDue undoes any arming.
func TestWakeZeroValueIsDue(t *testing.T) {
	var w Wake
	if w.WakeAt() > 0 {
		t.Fatalf("zero Wake sleeps until %d", w.WakeAt())
	}
	w.ArmWake(100)
	w.LowerWake(150)
	if w.WakeAt() != 100 {
		t.Errorf("LowerWake raised the wake time to %d", w.WakeAt())
	}
	w.LowerWake(40)
	if w.WakeAt() != 40 {
		t.Errorf("LowerWake(40) left %d", w.WakeAt())
	}
	w.MarkDue()
	if w.WakeAt() > 0 {
		t.Errorf("MarkDue left the component asleep until %d", w.WakeAt())
	}
}

// TestWakeBindMovesTheCell pins the handle: Bind carries the current
// wake time into the scheduler's cell, from then on the component's
// lowering and the scheduler's arming meet in that one word, and the
// clock reads through; unbound, there is no clock.
func TestWakeBindMovesTheCell(t *testing.T) {
	var w Wake
	if _, ok := w.Now(); ok {
		t.Error("an unbound Wake reports a clock")
	}
	w.ArmWake(70)
	table := []int64{-1, -1}
	clock := int64(12)
	w.Bind(&table[1], &clock)
	if table[1] != 70 || w.WakeAt() != 70 {
		t.Fatalf("Bind left cell %d, WakeAt %d; want the armed 70", table[1], w.WakeAt())
	}
	w.LowerWake(30)
	if table[1] != 30 {
		t.Errorf("LowerWake(30) left the cell at %d", table[1])
	}
	table[1] = 90 // the scheduler re-arms
	if w.WakeAt() != 90 {
		t.Errorf("WakeAt %d after the scheduler armed 90", w.WakeAt())
	}
	w.MarkDue()
	if table[1] != 0 || table[0] != -1 {
		t.Errorf("MarkDue left the table %v", table)
	}
	clock = 13
	if now, ok := w.Now(); !ok || now != 13 {
		t.Errorf("Now() = %d, %v; want 13", now, ok)
	}
}
