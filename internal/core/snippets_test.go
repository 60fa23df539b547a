package core

import (
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// The DPC-3 sources of this paper (SNIPPETS.md 1–2) encode the L1→L2
// metadata and the CPLX signature differently from Table I: a
// sign-magnitude stride with bit 6 as the sign, the class at <<8, a
// speculative-NL flag at bit 12, and a 12-bit signature
// ((sig<<1) ^ delta) & 0xFFF. The repository keeps Table I's 9-bit
// payload (2-bit class at <<7, 7-bit two's-complement stride) and 7-bit
// signature on purpose. These tables record, input by input, where the
// two agree and where they differ; a change on either side fails the
// row it moves, and which side is right is ROADMAP item 14's call.

// snippetEncode is bouquet_l1d::encode_metadata (SNIPPETS.md 2).
func snippetEncode(stride int, typ uint32, specNL uint32) uint32 {
	var m uint32
	if stride > 0 {
		m = uint32(stride)
	} else {
		m = uint32(-stride) | 0b1000000
	}
	return m | typ<<8 | specNL<<12
}

// snippetDecodeStride is bouquet_l2c::decode_stride (SNIPPETS.md 1).
func snippetDecodeStride(m uint32) int {
	if m&0b1000000 != 0 {
		return -int(m & 0b111111)
	}
	return int(m & 0b111111)
}

// snippetSig is bouquet_l1d::update_sig_l1 (SNIPPETS.md 2).
func snippetSig(old uint16, delta int) uint16 {
	d := delta
	if delta < 0 {
		d = -delta + 1<<6
	}
	return uint16((int(old)<<1 ^ d) & 0xFFF)
}

// classCode is the class's 2-bit code in the repository's payload.
func classCode(c memsys.PrefetchClass) uint32 {
	return uint32(memsys.Metadata{Class: c}.Encode() >> 7)
}

func TestMetadataAgainstSnippets(t *testing.T) {
	for _, tc := range []struct {
		stride int8
		// bits: the payload's stride field is the same bit pattern;
		// decoded: the receiving side reads the same stride back.
		bits, decoded bool
	}{
		{1, true, true},
		{5, true, true},
		{63, true, true},
		{0, false, true}, // the snippet sends zero as a set sign bit
		{-1, false, true},
		{-5, false, true},
		{-63, false, true},
		{-64, true, false}, // both send 0x40: -64 here, the snippet's -0 there
	} {
		repo := memsys.Metadata{Class: memsys.ClassCS, Stride: tc.stride}.Encode()
		snip := snippetEncode(int(tc.stride), classCode(memsys.ClassCS), 0)
		if got := uint32(repo)&0x7f == snip&0x7f; got != tc.bits {
			t.Errorf("stride %d: payload bits %#x vs snippet %#x: agree = %v, recorded %v", tc.stride, repo&0x7f, snip&0x7f, got, tc.bits)
		}
		back, snipBack := memsys.DecodeMetadata(repo).Stride, snippetDecodeStride(snip)
		if got := int(back) == snipBack; got != tc.decoded {
			t.Errorf("stride %d: decoded %d vs snippet %d: agree = %v, recorded %v", tc.stride, back, snipBack, got, tc.decoded)
		}
	}

	// The class field: the same code at <<7 here, at <<8 in the snippet.
	for _, cls := range []memsys.PrefetchClass{memsys.ClassCS, memsys.ClassGS, memsys.ClassNL} {
		repo := uint32(memsys.Metadata{Class: cls, Stride: 1}.Encode()) &^ 0x7f
		snip := snippetEncode(1, classCode(cls), 0) &^ 0xff
		if repo == snip {
			t.Errorf("%v: class bits %#x agree with the snippet's; recorded as differing", cls, repo)
		}
	}

	// Speculative NL: a flag at bit 12 in the snippet; here NL is a class
	// value and the 9-bit payload has no bit 12.
	repo := uint32(memsys.Metadata{Class: memsys.ClassNL, Stride: 1}.Encode())
	if snip := snippetEncode(1, 0, 1); repo&(1<<12) == snip&(1<<12) {
		t.Errorf("spec-NL: payload %#x agrees with the snippet's %#x at bit 12; recorded as differing", repo, snip)
	}
}

func TestSignatureAgainstSnippet(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	for _, tc := range []struct {
		sig   uint16
		delta int8
		agree bool
	}{
		{0, 3, true},
		{0, 63, true},
		{5, 2, true},
		{0x3f, 1, true},
		{0x40, 1, false},  // the shifted-out bit survives in 12 bits, not in 7
		{0x7f, 5, false},  // likewise
		{0, -1, false},    // two's complement 0x7f vs sign-magnitude 0x41
		{0, -63, false},   // 0x41 vs 0x7f
		{0x10, -2, false}, // the sign bit lands on different bits
	} {
		repo, snip := p.advanceSig(tc.sig, tc.delta), snippetSig(tc.sig, int(tc.delta))
		if got := repo == snip; got != tc.agree {
			t.Errorf("sig %#x delta %d: %#x vs snippet %#x: agree = %v, recorded %v", tc.sig, tc.delta, repo, snip, got, tc.agree)
		}
	}
}

// TestL2NewIPAgainstSnippet: the snippet's L2 issues a next-line
// prefetch on every demand from an IP its table does not hold, new or
// conflicting; the repository's L2 issues nothing for an IP the L1 has
// not classified (l2.go: unclassified demands do not next-line).
func TestL2NewIPAgainstSnippet(t *testing.T) {
	const snippetIssues = 1 // prefetch_line(cl_addr + 1) on a new/conflict IP
	for _, tc := range []struct {
		name  string
		agree bool
	}{
		{"new IP", false},
		{"conflicting IP", false},
	} {
		p := NewL2IPCP(DefaultL2Config())
		rec := &recorder{}
		ip := uint64(0x418000)
		if tc.name == "conflicting IP" {
			// Another IP with the same index holds the entry.
			meta := memsys.Metadata{Class: memsys.ClassCS, Stride: 2}.Encode()
			other := ip + 4*uint64(len(p.table))
			p.Operate(0, &prefetch.Access{Addr: 0x2_3000_0000, IP: other, Type: memsys.Prefetch, Meta: meta}, rec)
			rec.reset()
		}
		p.Operate(1, &prefetch.Access{Addr: 0x2_4000_0000, IP: ip, Type: memsys.Load}, rec)
		if got := len(rec.cands) == snippetIssues; got != tc.agree {
			t.Errorf("%s: %d candidates vs the snippet's %d next-line: agree = %v, recorded %v", tc.name, len(rec.cands), snippetIssues, got, tc.agree)
		}
	}
}
