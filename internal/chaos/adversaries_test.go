package chaos

import (
	"bytes"
	"errors"
	"testing"

	"ipcp/internal/prefetch"
	"ipcp/internal/trace"
)

func TestPanicStreamPanicsExactlyAtN(t *testing.T) {
	inner := &trace.SliceStream{Instrs: []trace.Instr{{IP: 1}, {IP: 2}, {IP: 3}}, Loop: true}
	s := &PanicStream{Inner: inner, PanicAt: 3}
	var in trace.Instr
	for i := 0; i < 2; i++ {
		if !s.Next(&in) {
			t.Fatalf("call %d: unexpected end of stream", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("third Next did not panic")
			}
		}()
		s.Next(&in)
	}()
	// Reset re-arms: calls 1 and 2 are safe again.
	s.Reset()
	if !s.Next(&in) || in.IP != 1 {
		t.Errorf("after Reset, first instr = %+v", in)
	}
}

func TestDeadStreamStaysDead(t *testing.T) {
	var s DeadStream
	var in trace.Instr
	if s.Next(&in) {
		t.Error("dead stream produced an instruction")
	}
	s.Reset()
	if s.Next(&in) {
		t.Error("dead stream revived after Reset")
	}
}

func TestPanicPrefetcherPanicsAtN(t *testing.T) {
	p := &PanicPrefetcher{PanicAt: 2}
	a := &prefetch.Access{Addr: 0x1000}
	p.Operate(0, a, nil)
	defer func() {
		if recover() == nil {
			t.Error("second Operate did not panic")
		}
	}()
	p.Operate(1, a, nil)
}

type countIssuer int

func (c *countIssuer) Issue(prefetch.Candidate) bool { *c++; return true }

func TestRunawayPrefetcherFloods(t *testing.T) {
	p := &RunawayPrefetcher{Flood: 1000}
	var n countIssuer
	p.Operate(0, &prefetch.Access{Addr: 0x1000}, &n)
	if n != 1000 {
		t.Errorf("issued %d candidates, want 1000", n)
	}
}

func TestCorruptionHelpersAgainstReader(t *testing.T) {
	var buf bytes.Buffer
	w, _ := trace.NewWriter(&buf)
	for i := 0; i < 10; i++ {
		in := trace.Instr{IP: uint64(0x400000 + 4*i), Loads: [trace.MaxLoads]uint64{uint64(0x10000 + 64*i)}}
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	good := buf.Bytes()

	// Truncation mid-record must read as ErrCorrupt.
	cut := Truncate(good, len(good)-5)
	r, err := trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var in trace.Instr
	for {
		if err = r.Read(&in); err != nil {
			break
		}
	}
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("truncated trace: got %v, want ErrCorrupt", err)
	}

	// Magic corruption must be rejected at open.
	bad := FlipBits(good, 0, 0xff)
	if _, err := trace.NewReader(bytes.NewReader(bad)); !errors.Is(err, trace.ErrBadMagic) {
		t.Errorf("flipped magic: got %v, want ErrBadMagic", err)
	}

	// Reserved flag corruption must be rejected at the damaged record.
	badFlags := FlipBits(good, 16, 0x80)
	r2, err := trace.NewReader(bytes.NewReader(badFlags))
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Read(&in); !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("reserved flag bits: got %v, want ErrCorrupt", err)
	}

	// The helpers copy — the original still parses cleanly.
	if _, err := trace.ReadAll(bytes.NewReader(good)); err != nil {
		t.Errorf("original trace damaged by helpers: %v", err)
	}
}
