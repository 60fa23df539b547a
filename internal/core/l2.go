package core

import (
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/telemetry"
)

// L2Config parametrizes the L2 IPCP (Fig. 6).
type L2Config struct {
	IPTableEntries int // paper: 64
	// DegreeCS is the CS prefetch degree at L2 (paper: 4 — deeper
	// than L1 thanks to the larger PQ/MSHR).
	DegreeCS int
	// DegreeGS is the GS degree at L2.
	DegreeGS int
	// NLThresholdMPKC gates tentative NL at the L2 (paper: 40).
	NLThresholdMPKC float64
}

// DefaultL2Config returns the paper's configuration.
func DefaultL2Config() L2Config {
	return L2Config{
		IPTableEntries:  64,
		DegreeCS:        4,
		DegreeGS:        4,
		NLThresholdMPKC: 40,
	}
}

// l2Entry is one L2 IP-table entry: l2EntryBits in hardware (tag,
// valid, class, stride/direction; see storage.go).
type l2Entry struct {
	tag    uint64
	valid  bool
	class  memsys.PrefetchClass
	stride int8
}

// L2IPCP is the bookkeeping IPCP at the L2: it never trains on the
// jumbled L2 access stream; it only decodes the classification
// metadata arriving with L1 prefetch requests and prefetches deep
// (from L2, filling to L2) on demand accesses. CPLX is deliberately
// absent at this level (§V, Multilevel Holistic IPCP).
type L2IPCP struct {
	cfg   L2Config
	table []l2Entry

	missCounter uint64
	cycleMark   int64
	nlOn        bool

	tr   *telemetry.Tracer
	core int

	Issued [memsys.NumClasses]uint64
}

// NewL2IPCP builds the L2 prefetcher.
func NewL2IPCP(cfg L2Config) *L2IPCP {
	if cfg.IPTableEntries <= 0 {
		cfg = DefaultL2Config()
	}
	return &L2IPCP{
		cfg:   cfg,
		table: make([]l2Entry, cfg.IPTableEntries),
		nlOn:  true,
	}
}

// Name implements prefetch.Prefetcher.
func (p *L2IPCP) Name() string { return "ipcp-l2" }

// Config returns the effective configuration (the audit oracle builds
// its reference model from it).
func (p *L2IPCP) Config() L2Config { return p.cfg }

// Operate implements prefetch.Prefetcher.
func (p *L2IPCP) Operate(now int64, a *prefetch.Access, iss prefetch.Issuer) {
	idx := (a.IP >> 2) % uint64(len(p.table))
	tag := (a.IP >> 2) / uint64(len(p.table)) & (1<<l2TagBits - 1)

	if a.Type == memsys.Prefetch {
		// An L1 prefetch arriving with metadata populates the table,
		// and — this is the multi-level mechanism — the L2 prefetches
		// deep ahead of the L1's own prefetch stream with the
		// communicated stride/direction ("prefetch deep based on the
		// L1 access stream but from L2 and till L2", §V).
		if a.Meta != 0 {
			m := memsys.DecodeMetadata(a.Meta)
			p.table[idx] = l2Entry{tag: tag, valid: true, class: m.Class, stride: m.Stride}
			switch m.Class {
			case memsys.ClassCS:
				if m.Stride != 0 {
					p.issueRun(iss, a.Addr, int64(m.Stride), p.cfg.DegreeCS, memsys.ClassCS)
				}
			case memsys.ClassGS:
				dir := int64(m.Stride)
				if dir == 0 {
					dir = 1
				}
				p.issueRun(iss, a.Addr, dir, p.cfg.DegreeGS, memsys.ClassGS)
			case memsys.ClassNL:
				// "If the L2 sees a prefetch request from L1-D with
				// class NL, it simply prefetches NL at the L2."
				if p.nlOn {
					p.issueRun(iss, a.Addr, 1, 1, memsys.ClassNL)
				}
			}
		}
		return
	}
	if !a.Type.IsDemand() || a.Type == memsys.CodeRead {
		return
	}
	if !a.Hit {
		p.missCounter++
	}

	e := p.table[idx]
	if e.valid && e.tag == tag {
		switch e.class {
		case memsys.ClassCS:
			if e.stride != 0 {
				p.issueRun(iss, a.Addr, int64(e.stride), p.cfg.DegreeCS, memsys.ClassCS)
			}
		case memsys.ClassGS:
			dir := int64(e.stride)
			if dir == 0 {
				dir = 1
			}
			p.issueRun(iss, a.Addr, dir, p.cfg.DegreeGS, memsys.ClassGS)
		case memsys.ClassNL:
			// Tentative NL only for IPs the L1 classified as NL, and
			// only below the L2 miss-rate threshold — unclassified
			// demands do NOT next-line (that would pollute strided
			// streams).
			if p.nlOn {
				p.issueRun(iss, a.Addr, 1, 1, memsys.ClassNL)
			}
		}
	}
}

// issueRun issues degree prefetches spaced stride blocks apart, within
// the page, filling to the L2.
func (p *L2IPCP) issueRun(iss prefetch.Issuer, addr memsys.Addr, stride int64, degree int, cls memsys.PrefetchClass) {
	for k := int64(1); k <= int64(degree); k++ {
		cand := memsys.Addr(int64(memsys.BlockNumber(addr))+stride*k) << memsys.BlockBits
		if !memsys.SamePage(addr, cand) {
			return
		}
		if iss.Issue(prefetch.Candidate{Addr: cand, Class: cls}) {
			p.Issued[cls]++
		}
	}
}

// Fill implements prefetch.Prefetcher.
func (p *L2IPCP) Fill(int64, *prefetch.FillEvent) {}

// Cycle implements prefetch.Prefetcher: the L2 MPKC epoch for
// tentative NL.
func (p *L2IPCP) Cycle(now int64) {
	const epoch = 4096
	if now-p.cycleMark < epoch {
		return
	}
	mpkc := float64(p.missCounter) * 1000 / float64(now-p.cycleMark)
	was := p.nlOn
	p.nlOn = mpkc < p.cfg.NLThresholdMPKC
	p.missCounter = 0
	p.cycleMark = now
	if p.nlOn != was && p.tr != nil {
		p.tr.Emit(telemetry.Event{
			Cycle: now, Kind: telemetry.EvNLGate,
			Level: memsys.LevelL2, Core: p.core, Class: memsys.ClassNL,
			Old: boolToInt(was), New: boolToInt(p.nlOn),
		})
	}
}

// NextEvent implements prefetch.NextEventer: the MPKC epoch closes
// exactly 4096 cycles after the last mark (see L1IPCP.NextEvent).
func (p *L2IPCP) NextEvent(now int64) int64 {
	next := p.cycleMark + 4096
	if next <= now {
		return now + 1
	}
	return next
}

// NLEnabled reports the tentative-NL gate state (testing).
func (p *L2IPCP) NLEnabled() bool { return p.nlOn }

// SetTracer implements telemetry.Traceable.
func (p *L2IPCP) SetTracer(tr *telemetry.Tracer, core int) {
	p.tr = tr
	p.core = core
}

// ResetStats implements telemetry.StatsResetter (warmup boundary).
func (p *L2IPCP) ResetStats() {
	p.Issued = [memsys.NumClasses]uint64{}
}

// TelemetrySnapshot implements telemetry.Introspector. The L2 IPCP has
// no throttling or filtering of its own, so only the issued counters
// and the NL gate carry state.
func (p *L2IPCP) TelemetrySnapshot() telemetry.Snapshot {
	s := telemetry.Snapshot{
		Name:  p.Name(),
		Level: memsys.LevelL2,
		NLOn:  p.nlOn,
	}
	for c := 0; c < memsys.NumClasses; c++ {
		s.Classes[c] = telemetry.ClassStats{Issued: p.Issued[c]}
	}
	return s
}

func init() {
	prefetch.Register("ipcp", func(level prefetch.Level) prefetch.Prefetcher {
		if level == memsys.LevelL2 {
			return NewL2IPCP(DefaultL2Config())
		}
		return NewL1IPCP(DefaultL1Config())
	})
}
