package core

import (
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// The paper's summary names two future directions; one is "enhancing
// IPCP with a temporal component for covering temporal and irregular
// accesses" (§VII). TemporalTable is that extension: a small
// miss-correlation table (a Markov-1 predictor over the L1 demand-miss
// stream, in the spirit of temporal streaming / Domino scaled down to
// IPCP's budget) that predicts the next missing block from the current
// one. It is off by default (L1Config.TemporalEntries); the abl-temporal
// experiment measures it.
type TemporalTable struct {
	entries []temporalEntry
	mask    uint64

	lastMiss uint64
	haveLast bool
}

type temporalEntry struct {
	tag  uint32 // partial tag of the triggering block
	next uint64 // successor block number
	conf uint8  // 2-bit confidence
}

// NewTemporalTable returns a table with the given entry count (power
// of two).
func NewTemporalTable(entries int) *TemporalTable {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("core: temporal table size must be a power of two")
	}
	return &TemporalTable{
		entries: make([]temporalEntry, entries),
		mask:    uint64(entries - 1),
	}
}

func (t *TemporalTable) slot(block uint64) (*temporalEntry, uint32) {
	h := block ^ block>>16
	return &t.entries[h&t.mask], uint32(h >> 12)
}

// RecordMiss trains the miss-to-miss correlation and returns the
// predicted successor block (0 if no confident prediction).
func (t *TemporalTable) RecordMiss(block uint64) uint64 {
	if t.haveLast && t.lastMiss != block {
		e, tag := t.slot(t.lastMiss)
		if e.tag == tag && e.next == block {
			if e.conf < 3 {
				e.conf++
			}
		} else if e.conf > 0 {
			e.conf--
		} else {
			*e = temporalEntry{tag: tag, next: block, conf: 1}
		}
	}
	t.lastMiss = block
	t.haveLast = true

	e, tag := t.slot(block)
	if e.tag == tag && e.conf >= 2 {
		return e.next
	}
	return 0
}

// temporalIssue lets the L1 IPCP consult the temporal table as a
// last-resort class for misses nothing else covered.
func (p *L1IPCP) temporalIssue(a *prefetch.Access, v memsys.Addr, iss prefetch.Issuer) {
	if p.temporal == nil || a.Hit {
		return
	}
	next := p.temporal.RecordMiss(memsys.BlockNumber(v))
	if next == 0 {
		return
	}
	cand := memsys.Addr(next) << memsys.BlockBits
	// Temporal candidates may leave the page; the issuing cache's
	// translator drops unmapped ones, and we skip the RR filter
	// check symmetrically with issue().
	if p.cfg.UseRRFilter && p.rr.hit(cand) {
		return
	}
	if iss.Issue(prefetch.Candidate{Addr: cand, IP: a.IP, Class: memsys.ClassNone}) {
		p.Issued[memsys.ClassNone]++
		if p.cfg.UseRRFilter {
			p.rr.insert(cand)
		}
	}
}
