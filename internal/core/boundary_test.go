package core

import (
	"reflect"
	"testing"

	"ipcp/internal/memsys"
)

// --- page-boundary clamp, low end ---------------------------------------

// TestCSNegativeStrideClampsAtPageBase trains CS on a descending stride
// and triggers just above a page base: every candidate below the page
// must be clamped (never issued), including the addr==0 underflow case
// where block+offset goes negative.
func TestCSNegativeStrideClampsAtPageBase(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x401000
	base := uint64(0x90_0000) + 40*memsys.BlockSize
	const stride = 3 // descending: -3 blocks per access
	for i := uint64(0); i < 8; i++ {
		demand(p, rec, int64(i), ip, base-i*stride*memsys.BlockSize, false)
	}
	rec.reset()
	before := p.PageClamped[memsys.ClassCS]
	// Trigger one block above the next page's base: -3, -6, ... all
	// land below it.
	trigger := uint64(0x91_0000) + 1*memsys.BlockSize
	demand(p, rec, 20, ip, trigger, false)
	for _, c := range rec.cands {
		if memsys.PageNumber(c.Addr) != memsys.PageNumber(memsys.Addr(trigger)) {
			t.Errorf("candidate %#x left the trigger page %#x", c.Addr, trigger)
		}
		if c.Addr < memsys.Addr(trigger)&^uint64(memsys.PageSize-1) {
			t.Errorf("candidate %#x below the page base", c.Addr)
		}
	}
	if p.PageClamped[memsys.ClassCS] == before {
		t.Error("descending candidates below the page base were not counted as clamped")
	}
}

// TestGSBackwardClampsAtPageBase drives a descending GS stream into the
// first blocks of a region: the deep GS run must stop at the page base
// instead of wrapping below it.
func TestGSBackwardClampsAtPageBase(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x402000
	region := uint64(0xA0_0000)
	now := int64(1)
	for l := 31; l >= 0; l-- {
		demand(p, rec, now, ip, region+uint64(l)*memsys.BlockSize, false)
		now++
	}
	rec.reset()
	// Enter the previous region right at its second block: a full
	// descending GS run would shoot past the base.
	next := region - 4096 + 1*memsys.BlockSize
	demand(p, rec, now, ip, next, false)
	pageBase := memsys.Addr(next) &^ uint64(memsys.PageSize-1)
	for _, c := range rec.byClass(memsys.ClassGS) {
		if c.Addr < pageBase || memsys.PageNumber(c.Addr) != memsys.PageNumber(memsys.Addr(next)) {
			t.Errorf("descending GS candidate %#x escaped page [%#x, ...)", c.Addr, pageBase)
		}
	}
}

// --- signature advance at the stride extremes ----------------------------

// TestAdvanceSigInt8Extremes pins the signature fold at the edges of
// the clamped stride range [-64, 63]: the int8→uint8 conversion must be
// the two's-complement byte, masked to SignatureBits.
func TestAdvanceSigInt8Extremes(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config()) // SignatureBits = 7, mask 0x7f
	cases := []struct {
		sig    uint16
		stride int8
		want   uint16
	}{
		{0, 63, 0x3f},         // max positive stride
		{0, -64, 0xc0 & 0x7f}, // min negative stride: byte 0xc0
		{0, -1, 0xff & 0x7f},  // all-ones byte folds into the mask
		{0x7f, 63, (0xfe ^ 0x3f) & 0x7f},
		{0x40, -64, ((0x40 << 1) ^ 0xc0) & 0x7f},
	}
	for _, c := range cases {
		if got := p.advanceSig(c.sig, c.stride); got != c.want {
			t.Errorf("advanceSig(%#x, %d) = %#x, want %#x", c.sig, c.stride, got, c.want)
		}
	}
	// Property: the result stays within the signature mask for every
	// possible int8 stride, including values outside the clamp range
	// that a bug might let through.
	for s := -128; s <= 127; s++ {
		for _, sig := range []uint16{0, 1, 0x7f, 0xff, 0xffff} {
			if got := p.advanceSig(sig, int8(s)); got > p.sigMask() {
				t.Fatalf("advanceSig(%#x, %d) = %#x exceeds mask %#x", sig, s, got, p.sigMask())
			}
		}
	}
}

// TestStrideOutsideClampDoesNotTrain checks the stride gate: a jump
// beyond [-64, 63] blocks (possible across distant pages) is treated as
// stride 0 — no CS/CPLX training on a garbage truncated stride.
func TestStrideOutsideClampDoesNotTrain(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x403000
	addr := uint64(0xB0_0000)
	// Alternate between two far-apart addresses: every stride is ±4096
	// blocks, far outside int8.
	for i := 0; i < 16; i++ {
		demand(p, rec, int64(i), ip, addr, false)
		if i%2 == 0 {
			addr += 4096 * memsys.BlockSize
		} else {
			addr -= 4096 * memsys.BlockSize
		}
	}
	if cs := rec.byClass(memsys.ClassCS); len(cs) != 0 {
		t.Errorf("CS trained on out-of-clamp strides: %d candidates", len(cs))
	}
	if cplx := rec.byClass(memsys.ClassCPLX); len(cplx) != 0 {
		t.Errorf("CPLX trained on out-of-clamp strides: %d candidates", len(cplx))
	}
}

// --- CSPT size ------------------------------------------------------------

// TestCSPTSizeFollowsSignatureBits: the CSPT is indexed by the
// SignatureBits-wide signature, so its size is 1<<SignatureBits, with no
// second field to disagree with it (the abl-sig ablation varies the
// width alone), and construction leaves the configuration as given.
func TestCSPTSizeFollowsSignatureBits(t *testing.T) {
	for _, c := range []struct{ bits, wantLen int }{
		{7, 128},      // paper default
		{9, 512},      // abl-sig: wider signature
		{5, 32},       // abl-sig: narrower signature
		{1, 2},        // narrowest width Validate accepts
		{16, 1 << 16}, // widest width Validate accepts
	} {
		cfg := DefaultL1Config()
		cfg.SignatureBits = c.bits
		p := NewL1IPCP(cfg)
		if len(p.cspt) != c.wantLen {
			t.Errorf("SignatureBits=%d: CSPT has %d entries, want %d", c.bits, len(p.cspt), c.wantLen)
		}
		if !reflect.DeepEqual(p.Config(), cfg) {
			t.Errorf("SignatureBits=%d: construction rewrote the configuration to %+v", c.bits, p.Config())
		}
		// Every reachable signature must index in bounds.
		if int(p.sigMask())+1 != len(p.cspt) {
			t.Errorf("sigMask %#x inconsistent with CSPT size %d", p.sigMask(), len(p.cspt))
		}
	}
}

// TestWideSignatureNoAliasing reproduces the bug the reconciliation
// fixes: with SignatureBits=9 the old code indexed a 128-entry CSPT
// with sig%128, aliasing signatures 0x080 and 0x000. After the fix the
// two signatures train distinct entries.
func TestWideSignatureNoAliasing(t *testing.T) {
	cfg := DefaultL1Config()
	cfg.SignatureBits = 9
	p := NewL1IPCP(cfg)
	a, b := uint16(0x080), uint16(0x000)
	if a&p.sigMask() == b&p.sigMask() {
		t.Fatalf("signatures %#x and %#x alias under mask %#x", a, b, p.sigMask())
	}
	p.cspt[a&p.sigMask()].stride = 7
	if got := p.cspt[b&p.sigMask()].stride; got != 0 {
		t.Fatalf("training signature %#x leaked into %#x (stride %d)", a, b, got)
	}
}
