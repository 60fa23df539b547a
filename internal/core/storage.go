package core

import (
	"fmt"
	"math/bits"

	"ipcp/internal/memsys"
)

// Storage reproduces Table I of the paper: the bit-exact hardware
// budget of IPCP at the L1 and L2. The widths are the hardware widths
// of Fig. 5/6 (the simulator's in-memory structs are wider for
// convenience; what the paper costs is the hardware encoding).
type Storage struct {
	L1Bits     int
	OthersBits int
	L2Bits     int
}

// Hardware field widths (Fig. 3–6). Each is the one declaration of its
// width: the model masks, clamps and saturates with the same constant
// ComputeStorage sums (ipTag, the stride window, the confidence and
// pos/neg counters, the L2 tag; rrTagBits and rrEntries sit with the
// filter in rrfilter.go), so Table I costs the widths the model runs
// with. The widths a configuration sets are not here: ComputeStorage
// derives the signature, the CSPT size, the RST line-offset and bit
// vector (from RegionBits) and the RST LRU (from RSTEntries) from the
// L1Config it is given.
//
// What stays fixed whatever the configuration: the RST's 3-bit region
// id is a partial tag the paper sizes on its own, which the model keeps
// whole; the pos/neg counter is 6 bits at every region size; and the
// per-line class bits cover the paper's 64-set, 12-way L1-D, whose
// geometry is the cache's, not the prefetcher's.
const (
	// IP table (Fig. 5); the stride and confidence widths are the
	// CSPT's (Fig. 3) too.
	ipTagBits         = 9
	ipValidBits       = 1
	ipLastVPageBits   = 2
	ipStreamValidBits = 1
	ipDirectionBits   = 1
	strideBits        = 7
	confBits          = 2

	// RST (Fig. 4), bar the widths RegionBits and RSTEntries set.
	rstRegionIDBits  = 3
	rstPosNegBits    = 6
	rstDenseBits     = 1
	rstTrainedBits   = 1
	rstTentativeBits = 1
	rstDirectionBits = 1

	// Per-line class bits of the L1-D, and the L2 entry's class field.
	classBits = 2
	l1Sets    = 64
	l1Ways    = 12

	// "Others" (Table I): tentative-NL bit, per-class issue/hit
	// counters, miss + instruction counters, per-class accuracy
	// registers and the MPKI register.
	tentativeNLBits    = 1
	perClassIssuedBits = 8 * 4
	perClassHitsBits   = 8 * 4
	missCounterBits    = 10
	instrCounterBits   = 10
	accuracyRegBits    = 7 * 4 // three 7-bit accuracy registers + 7-bit MPKI

	// L2 IP table (Fig. 6): 9-bit tag + valid + 2-bit class + 7-bit
	// stride = 19 bits per entry.
	l2TagBits          = 9
	l2ValidBits        = 1
	l2EntryBits        = l2TagBits + l2ValidBits + classBits + strideBits
	l2TentativeNLBits  = 1
	l2MissCounterBits  = 10
	l2InstrCounterBits = 10
)

// ComputeStorage returns the Table I budget for the given configs.
func ComputeStorage(l1 L1Config, l2 L2Config) Storage {
	// The IP table keeps the last line's offset within its page; the
	// RST, within its region, plus one bit per region line.
	pageLineBits := memsys.PageBits - memsys.BlockBits
	regionLineBits := l1.RegionBits - memsys.BlockBits
	ipEntryBits := ipTagBits + ipValidBits + ipLastVPageBits + pageLineBits +
		strideBits + confBits + ipStreamValidBits + ipDirectionBits + l1.SignatureBits
	rstEntryBits := rstRegionIDBits + regionLineBits + 1<<regionLineBits + rstPosNegBits +
		rstDenseBits + rstTrainedBits + rstTentativeBits + rstDirectionBits +
		bits.Len(uint(l1.RSTEntries-1)) // LRU position

	var s Storage
	s.L1Bits = ipEntryBits*l1.IPTableEntries +
		(strideBits+confBits)<<l1.SignatureBits + // the CSPT
		rstEntryBits*l1.RSTEntries +
		classBits*l1Sets*l1Ways +
		rrTagBits*rrEntries
	s.OthersBits = tentativeNLBits + perClassIssuedBits + perClassHitsBits +
		missCounterBits + instrCounterBits + accuracyRegBits
	s.L2Bits = l2EntryBits*l2.IPTableEntries +
		l2TentativeNLBits + l2MissCounterBits + l2InstrCounterBits
	return s
}

// L1Bytes is the L1 budget (tables + others) rounded up to bytes.
func (s Storage) L1Bytes() int { return (s.L1Bits + s.OthersBits + 7) / 8 }

// L2Bytes is the L2 budget rounded up to bytes.
func (s Storage) L2Bytes() int { return (s.L2Bits + 7) / 8 }

// TotalBytes is the whole-framework budget.
func (s Storage) TotalBytes() int { return s.L1Bytes() + s.L2Bytes() }

// String formats the budget like Table I.
func (s Storage) String() string {
	return fmt.Sprintf(
		"IPCP at L1: %d bits (+%d bits counters) = %d bytes; IPCP at L2: %d bits = %d bytes; total %d bytes",
		s.L1Bits, s.OthersBits, s.L1Bytes(), s.L2Bits, s.L2Bytes(), s.TotalBytes())
}
