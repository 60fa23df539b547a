package prefetch

import "ipcp/internal/memsys"

// DSPatch is a lightweight rendition of the Dual Spatial Pattern
// prefetcher [Bera et al., MICRO 2019]: per trigger-PC it keeps two
// bit patterns for a page — a coverage-biased pattern (the OR of
// observed footprints) and an accuracy-biased pattern (the AND) — and
// selects between them with a feedback signal. The original switches
// on measured DRAM bandwidth headroom; as the prefetcher has no bus
// probe in this framework, the selector uses its own recent prefetch
// accuracy (low accuracy → accuracy-biased pattern), which tracks the
// same congestion signal. Deviation documented in DESIGN.md.
type DSPatch struct {
	table map[uint64]*dspatchEntry
	cap   int

	// active tracks the in-flight page footprints being accumulated.
	active []dspatchActive
	clock  uint64

	// accuracy feedback
	issued uint64
	useful uint64
	useAcc bool // true → accuracy-biased (AND) pattern
}

type dspatchEntry struct {
	covP uint64 // OR of footprints (coverage-biased)
	accP uint64 // AND of footprints (accuracy-biased)
	seen int
}

type dspatchActive struct {
	page  uint64
	pc    uint64
	bits  uint64
	lru   uint64
	valid bool
}

// NewDSPatch returns the default configuration.
func NewDSPatch() *DSPatch {
	return &DSPatch{
		table:  make(map[uint64]*dspatchEntry),
		cap:    1024,
		active: make([]dspatchActive, 32),
	}
}

// Name implements Prefetcher.
func (p *DSPatch) Name() string { return "dspatch" }

// Operate implements Prefetcher.
func (p *DSPatch) Operate(now int64, a *Access, iss Issuer) {
	if !a.Type.IsDemand() {
		return
	}
	if a.HitPrefetched {
		p.useful++
	}
	addr := a.Addr
	if a.VAddr != 0 {
		addr = a.VAddr
	}
	page := memsys.PageNumber(addr)
	line := memsys.PageOffsetLine(addr)
	p.clock++

	for i := range p.active {
		e := &p.active[i]
		if e.valid && e.page == page {
			e.bits |= 1 << uint(line)
			e.lru = p.clock
			return
		}
	}

	// New page: learn the evicted page's footprint, then predict.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range p.active {
		if !p.active[i].valid {
			victim, oldest = i, 0
			break
		}
		if p.active[i].lru < oldest {
			victim, oldest = i, p.active[i].lru
		}
	}
	if v := &p.active[victim]; v.valid {
		p.learn(v.pc, v.bits)
	}
	p.active[victim] = dspatchActive{page: page, pc: a.IP, bits: 1 << uint(line), lru: p.clock, valid: true}

	e := p.table[hash64(a.IP)]
	if e == nil || e.seen < 2 {
		return
	}
	p.updateSelector()
	bits := e.covP
	if p.useAcc {
		bits = e.accP
	}
	base := addr &^ memsys.Addr(memsys.PageSize-1)
	for l := 0; l < memsys.LinesPerPage; l++ {
		if l == line || bits&(1<<uint(l)) == 0 {
			continue
		}
		if iss.Issue(Candidate{Addr: base + memsys.Addr(l)*memsys.BlockSize, Class: memsys.ClassNone}) {
			p.issued++
		}
	}
}

func (p *DSPatch) learn(pc, bits uint64) {
	k := hash64(pc)
	e := p.table[k]
	if e == nil {
		if len(p.table) >= p.cap {
			p.table = make(map[uint64]*dspatchEntry)
		}
		e = &dspatchEntry{covP: bits, accP: bits}
		p.table[k] = e
	} else {
		e.covP |= bits
		e.accP &= bits
	}
	e.seen++
}

func (p *DSPatch) updateSelector() {
	if p.issued < 512 {
		return
	}
	acc := float64(p.useful) / float64(p.issued)
	p.useAcc = acc < 0.5
	p.issued, p.useful = 0, 0
}

// Fill implements Prefetcher.
func (p *DSPatch) Fill(int64, *FillEvent) {}

// Cycle implements Prefetcher.
func (p *DSPatch) Cycle(int64) {}
