package core

import (
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// TestComputeStorageVariants holds ComputeStorage to the configuration
// it is given, on the ablations that change a table's shape: abl-sig's
// signature widths, abl-region's region sizes and abl-table's table
// scales. Each expected value is summed here from Fig. 3–5's field
// widths, written out as numbers, so a width the model and the budget
// share cannot drift from the figure unnoticed.
func TestComputeStorageVariants(t *testing.T) {
	// One IP-table entry (Fig. 5): tag 9, valid 1, last vpage 2, last
	// line offset 6, stride 7, confidence 2, stream valid 1, direction
	// 1, then the signature.
	ipEntry := func(sigBits int) int { return 9 + 1 + 2 + 6 + 7 + 2 + 1 + 1 + sigBits }
	// One CSPT entry (Fig. 3): stride 7 + confidence 2.
	cspt := func(sigBits int) int { return (7 + 2) << sigBits }
	// One RST entry (Fig. 4): region id 3, last line offset, one bit per
	// region line, pos/neg 6, dense 1, trained 1, tentative 1, direction
	// 1, then the LRU position.
	rstEntry := func(lineBits, lruBits int) int { return 3 + lineBits + 1<<lineBits + 6 + 1 + 1 + 1 + 1 + lruBits }
	const (
		classBits = 2 * 64 * 12 // per-line class bits of the 48 KB L1-D
		rrBits    = 12 * 32     // the recent-request filter
		others    = 113         // Table I's counters and registers
		l2Bits    = 1237        // 64 × 19-bit entries + 21 bits of counters
	)
	l1Bytes := func(l1Bits int) int { return (l1Bits + others + 7) / 8 }

	cases := []struct {
		name   string
		mutate func(*L1Config)
		l1Bits int
	}{
		{"paper", func(*L1Config) {},
			64*ipEntry(7) + cspt(7) + 8*rstEntry(5, 3) + classBits + rrBits},
		{"abl-sig 5-bit signature", func(c *L1Config) { c.SignatureBits = 5 },
			64*ipEntry(5) + cspt(5) + 8*rstEntry(5, 3) + classBits + rrBits},
		{"abl-sig 9-bit signature", func(c *L1Config) { c.SignatureBits = 9 },
			64*ipEntry(9) + cspt(9) + 8*rstEntry(5, 3) + classBits + rrBits},
		{"abl-region 1KB regions", func(c *L1Config) { c.RegionBits = 10 },
			64*ipEntry(7) + cspt(7) + 8*rstEntry(4, 3) + classBits + rrBits},
		{"abl-region 4KB regions", func(c *L1Config) { c.RegionBits = 12 },
			64*ipEntry(7) + cspt(7) + 8*rstEntry(6, 3) + classBits + rrBits},
		{"abl-table x2", func(c *L1Config) { c.IPTableEntries, c.RSTEntries = 128, 16 },
			128*ipEntry(7) + cspt(7) + 16*rstEntry(5, 4) + classBits + rrBits},
		{"abl-table x4", func(c *L1Config) { c.IPTableEntries, c.RSTEntries = 256, 32 },
			256*ipEntry(7) + cspt(7) + 32*rstEntry(5, 5) + classBits + rrBits},
		{"abl-table x16", func(c *L1Config) { c.IPTableEntries, c.RSTEntries = 1024, 128 },
			1024*ipEntry(7) + cspt(7) + 128*rstEntry(5, 7) + classBits + rrBits},
	}
	for _, c := range cases {
		cfg := DefaultL1Config()
		c.mutate(&cfg)
		s := ComputeStorage(cfg, DefaultL2Config())
		if s.L1Bits != c.l1Bits || s.OthersBits != others || s.L2Bits != l2Bits {
			t.Errorf("%s: L1 %d + others %d bits, L2 %d bits; want %d + %d, %d",
				c.name, s.L1Bits, s.OthersBits, s.L2Bits, c.l1Bits, others, l2Bits)
		}
		if got, want := s.L1Bytes(), l1Bytes(c.l1Bits); got != want {
			t.Errorf("%s: L1 %d bytes, want %d", c.name, got, want)
		}
	}
}

// TestModelRunsAtTableIWidths pins the model's own use of the widths
// Table I costs, at their edges and with the figures' numbers written
// out: the 9-bit IP and L2 tags, the 7-bit stride window (-64..63
// blocks) and the 6-bit pos/neg counter (from 32, saturating at 63).
// The result digests and the audit oracle do not reach these edges, so
// without this test a width that moved would change only the budget.
func TestModelRunsAtTableIWidths(t *testing.T) {
	if ipTag(0x1ff<<2) != 0x1ff || ipTag(0x200<<2) != 0 {
		t.Errorf("ipTag keeps %#x of 0x1ff and %#x of 0x200, want a 9-bit tag", ipTag(0x1ff<<2), ipTag(0x200<<2))
	}

	for _, c := range []struct {
		stride int64
		trains bool
	}{{63, true}, {-64, true}, {64, false}, {-65, false}} {
		p := NewL1IPCP(DefaultL1Config())
		base := int64(0x100_0000)
		for i := int64(0); i < 5; i++ {
			demand(p, &recorder{}, i, 0x404000, uint64(base+i*c.stride*memsys.BlockSize), false)
		}
		var got int8
		p.DebugEntries(func(_ int, _ uint64, stride int8, _ uint8, _ bool, _ uint16) { got = stride })
		if trained := got != 0; trained != c.trains || trained && int64(got) != c.stride {
			t.Errorf("stride %d blocks: the IP entry holds stride %d, want it trained = %v", c.stride, got, c.trains)
		}
	}

	cfg := DefaultL1Config()
	cfg.RegionBits = 12 // 64 lines: enough upward votes to pass a 6-bit counter
	p := NewL1IPCP(cfg)
	region := uint64(0x200_0000)
	p.updateRST(region, false, 0)
	if e := p.findRST(region >> cfg.RegionBits); e == nil || e.posNeg != 32 {
		t.Fatalf("a new region's pos/neg counter = %+v, want 32", e)
	}
	for line := uint64(1); line < 64; line++ {
		p.updateRST(region+line*memsys.BlockSize, false, 0)
	}
	if e := p.findRST(region >> cfg.RegionBits); e.posNeg != 63 || e.direction != 1 {
		t.Errorf("63 upward votes left pos/neg at %d (direction %d), want it saturated at 63", e.posNeg, e.direction)
	}

	// The L2 table is indexed by (ip>>2) mod 64 and tagged by the next 9
	// bits: an IP that differs only above them aliases, one that differs
	// in the ninth does not.
	l2 := NewL2IPCP(DefaultL2Config())
	rec := &recorder{}
	const ip, addr = 0x1000, 0x50_0000
	l2.Operate(0, &prefetch.Access{Addr: addr, IP: ip, Type: memsys.Prefetch,
		Meta: memsys.Metadata{Class: memsys.ClassCS, Stride: 1}.Encode()}, rec)
	for _, c := range []struct {
		ip   uint64
		hits bool
	}{{ip, true}, {ip + 0x200*64<<2, true}, {ip + 0x100*64<<2, false}} {
		rec.reset()
		l2.Operate(1, &prefetch.Access{Addr: addr, IP: c.ip, Type: memsys.Load}, rec)
		if hit := len(rec.cands) > 0; hit != c.hits {
			t.Errorf("L2 demand at IP %#x: table hit = %v, want %v", c.ip, hit, c.hits)
		}
	}
}
