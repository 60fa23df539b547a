// Package memsys defines the shared vocabulary of the simulated memory
// system: addresses, access types, cache levels, and the Request that
// flows between components.
//
// Every component of the hierarchy (cores, caches, DRAM) exchanges
// *Request values and is clocked by a single global cycle counter owned
// by the simulation driver.
package memsys

import "fmt"

// Address geometry. The simulator models 64-byte cache blocks and 4KB
// pages throughout, matching the paper's configuration.
const (
	BlockBits = 6
	BlockSize = 1 << BlockBits // 64 B

	PageBits = 12
	PageSize = 1 << PageBits // 4 KiB

	// LinesPerPage is the number of cache lines in one page; a line
	// offset within a page therefore fits in 6 bits (0..63).
	LinesPerPage = PageSize / BlockSize
)

// Addr is a 64-bit (virtual or physical) byte address.
type Addr = uint64

// BlockAlign clears the intra-block offset bits of a.
func BlockAlign(a Addr) Addr { return a &^ (BlockSize - 1) }

// BlockNumber returns the cache-line-aligned address shifted down so that
// consecutive blocks differ by one.
func BlockNumber(a Addr) uint64 { return a >> BlockBits }

// PageNumber returns the virtual/physical page number of a.
func PageNumber(a Addr) uint64 { return a >> PageBits }

// PageOffsetLine returns the cache-line offset of a within its page
// (0..LinesPerPage-1).
func PageOffsetLine(a Addr) int { return int((a >> BlockBits) & (LinesPerPage - 1)) }

// SamePage reports whether two byte addresses fall in the same page.
func SamePage(a, b Addr) bool { return PageNumber(a) == PageNumber(b) }

// AccessType describes why a request exists.
type AccessType uint8

const (
	// Load is a demand data read.
	Load AccessType = iota
	// RFO is a demand store (read-for-ownership).
	RFO
	// Prefetch is a prefetcher-generated read.
	Prefetch
	// Writeback is a dirty eviction travelling down the hierarchy.
	Writeback
	// CodeRead is an instruction fetch from the L1-I.
	CodeRead
)

// IsDemand reports whether the access type counts as a demand access for
// MPKI and coverage accounting.
func (t AccessType) IsDemand() bool {
	return t == Load || t == RFO || t == CodeRead
}

func (t AccessType) String() string {
	switch t {
	case Load:
		return "load"
	case RFO:
		return "rfo"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	case CodeRead:
		return "code"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Level identifies a position in the cache hierarchy. It is used both to
// name caches and to bound how far up a prefetch fill propagates.
type Level uint8

const (
	LevelCore Level = iota
	LevelL1I
	LevelL1D
	LevelL2
	LevelLLC
	LevelDRAM
)

func (l Level) String() string {
	switch l {
	case LevelCore:
		return "core"
	case LevelL1I:
		return "L1I"
	case LevelL1D:
		return "L1D"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// PrefetchClass tags a prefetch with the IPCP class that generated it (or
// ClassNone for non-IPCP prefetchers). It doubles as the 2-bit per-line
// class tag the paper stores in the L1-D and as the class component of
// the L1→L2 metadata.
type PrefetchClass uint8

const (
	ClassNone PrefetchClass = iota
	ClassCS
	ClassCPLX
	ClassGS
	ClassNL
	numClasses
)

// NumClasses is the number of distinct prefetch classes including
// ClassNone.
const NumClasses = int(numClasses)

func (c PrefetchClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassCS:
		return "CS"
	case ClassCPLX:
		return "CPLX"
	case ClassGS:
		return "GS"
	case ClassNL:
		return "NL"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// MarshalText renders the class by name, so a priority order reads
// ["GS","CS","CPLX","NL"] in a JSON config (core.L1Config.Priority).
func (c PrefetchClass) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText is MarshalText's inverse; an unknown name is an error.
func (c *PrefetchClass) UnmarshalText(b []byte) error {
	for k := ClassNone; k < numClasses; k++ {
		if k.String() == string(b) {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("memsys: unknown prefetch class %q", b)
}

// Metadata is the 9-bit payload IPCP sends from the L1 prefetcher to the
// L2 prefetcher alongside each prefetch request: a 2-bit class and a
// 7-bit signed stride (or stream direction for the GS class).
type Metadata struct {
	Class  PrefetchClass
	Stride int8 // 7-bit signed stride / direction; 0 means "none"
}

// Encode packs m into the 9-bit wire format used on the L1→L2 bus.
func (m Metadata) Encode() uint16 {
	cls := uint16(0)
	switch m.Class {
	case ClassCS:
		cls = 1
	case ClassGS:
		cls = 2
	case ClassNL:
		cls = 3
	}
	return cls<<7 | uint16(uint8(m.Stride))&0x7f
}

// DecodeMetadata unpacks a 9-bit payload produced by Encode.
func DecodeMetadata(v uint16) Metadata {
	var m Metadata
	switch v >> 7 & 3 {
	case 1:
		m.Class = ClassCS
	case 2:
		m.Class = ClassGS
	case 3:
		m.Class = ClassNL
	}
	// Sign-extend the 7-bit stride.
	s := int(v & 0x7f)
	if s >= 64 {
		s -= 128
	}
	m.Stride = int8(s)
	return m
}

// Receiver is implemented by anything that can accept a completed
// request travelling back up the hierarchy (a cache filling itself, or a
// core completing a load).
type Receiver interface {
	// ReturnData delivers the data for req at cycle now. The request's
	// Addr identifies the block.
	ReturnData(now int64, req *Request)
}

// Sink is implemented by every component that accepts requests from
// above (caches and the DRAM controller). Each Add method reports
// whether the request was accepted; false means the target queue is full
// and the caller must retry on a later cycle.
type Sink interface {
	AddRead(r *Request) bool
	AddWrite(r *Request) bool
	AddPrefetch(r *Request) bool
}

// Component is the per-cycle clocking interface.
type Component interface {
	Cycle(now int64)
}

// Request is one in-flight memory transaction. Requests are created by
// cores (demand) and prefetchers, travel down the hierarchy through
// queues and MSHRs, and return upward via the Receiver chain.
type Request struct {
	// Addr is the physical byte address (block aligned for everything
	// but core loads, which keep the precise address).
	Addr Addr
	// VAddr is the virtual byte address; IPCP trains on virtual
	// addresses at the L1-D.
	VAddr Addr
	// IP is the instruction pointer of the triggering instruction; it
	// travels with the request so lower-level prefetchers can use it.
	IP Addr
	// Type is the access type.
	Type AccessType
	// CoreID identifies the requesting core (multi-core sharing).
	CoreID int

	// FillLevel bounds how far up the returned data is installed: a
	// prefetch with FillLevel = LevelL2 fills the LLC and L2 but not
	// the L1. Demand requests use the issuing cache's own level.
	FillLevel Level

	// PfClass and PfMeta describe prefetch requests: the IPCP class and
	// the encoded 9-bit L1→L2 metadata payload.
	PfClass PrefetchClass
	PfMeta  uint16
	// PfOrigin is the level whose prefetcher created the request.
	PfOrigin Level

	// ReturnTo receives the data when the request completes. It is set
	// by each level as it forwards the request downward.
	ReturnTo Receiver

	// Tag is an opaque requester cookie (the core uses it to find the
	// ROB entry). It must be preserved by the hierarchy.
	Tag int64

	// Born is the cycle the request was created (for latency stats).
	Born int64
}

// IsPrefetch reports whether the request was generated by a prefetcher.
func (r *Request) IsPrefetch() bool { return r.Type == Prefetch }

// Block returns the block-aligned physical address.
func (r *Request) Block() Addr { return BlockAlign(r.Addr) }
