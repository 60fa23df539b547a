package audit

import (
	"fmt"
	"math"

	"ipcp/internal/core"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// l1Oracle is the reference model of the paper's L1-D IPCP, written for
// clarity rather than speed: plain structs, no pooling, no fast paths.
// It re-derives, from the paper's Figures 2–5 and §IV–§V, the exact
// candidate stream (address, class, 9-bit metadata, order) the bouquet
// must produce for a given access stream, and mirrors the coordinated
// throttling and the tentative-NL MPKC gate so degree and accuracy can
// be compared against the production prefetcher after every fill.
//
// The two sides synchronize through the opMatcher: the oracle learns
// the cache's accept/reject verdict for each candidate and applies it
// to its own RR filter and counters, so a rejected candidate (PQ full,
// unmapped page) cannot drift the states apart.
type l1Oracle struct {
	impl *core.L1IPCP
	cfg  core.L1Config

	ip   []oraIPEntry
	cspt []oraCSPT
	rst  []oraRST
	rr   *refRRFilter

	clock uint64

	// per-class throttle state (§V): current degree, default degree,
	// and the 256-fill accuracy window.
	deg      [memsys.NumClasses]int
	defDeg   [memsys.NumClasses]int
	winFills [memsys.NumClasses]uint64
	winUse   [memsys.NumClasses]uint64
	acc      [memsys.NumClasses]float64
	measured [memsys.NumClasses]bool

	// tentative-NL gate: demand misses per kilo-cycle, 4096-cycle epochs.
	missCounter uint64
	cycleMark   int64
	nlOn        bool

	// observation counters mirroring the production Stats for the
	// end-of-run cross-check.
	issued      [memsys.NumClasses]uint64
	fills       [memsys.NumClasses]uint64
	useful      [memsys.NumClasses]uint64
	rrFiltered  [memsys.NumClasses]uint64
	pageClamped [memsys.NumClasses]uint64
}

// The paper's constants the oracle reads from the text, not from
// internal/core: a region trains as dense at 75% of its lines touched
// (§IV-C), and a class's accuracy epoch is 256 of its fills (§V).
const (
	oraDenseFraction  = 0.75
	oraThrottleWindow = 256
)

// oraIPEntry is one IP-table entry (Fig. 5).
type oraIPEntry struct {
	tag         uint64
	valid       bool
	lastBlock   uint64
	hasLast     bool
	stride      int8
	confidence  uint8
	streamValid bool
	direction   int8
	signature   uint16
}

// oraCSPT is one CSPT entry (Fig. 3).
type oraCSPT struct {
	stride     int8
	confidence uint8
}

// oraRST is one region-stream-table entry (Fig. 4).
type oraRST struct {
	region    uint64
	lastLine  int
	bits      uint64
	posNeg    int
	dense     int
	trained   bool
	tentative bool
	direction int8
	lru       uint64
	valid     bool
}

func newL1Oracle(impl *core.L1IPCP) *l1Oracle {
	cfg := impl.Config()
	o := &l1Oracle{
		impl: impl,
		cfg:  cfg,
		ip:   make([]oraIPEntry, cfg.IPTableEntries),
		cspt: make([]oraCSPT, 1<<cfg.SignatureBits), // one entry per signature
		rst:  make([]oraRST, cfg.RSTEntries),
		rr:   newRefRR(),
		nlOn: true,
	}
	o.defDeg[memsys.ClassCS] = cfg.DegreeCS
	o.defDeg[memsys.ClassCPLX] = cfg.DegreeCPLX
	o.defDeg[memsys.ClassGS] = cfg.DegreeGS
	o.defDeg[memsys.ClassNL] = 1
	for c := 0; c < memsys.NumClasses; c++ {
		o.deg[c] = o.defDeg[c]
		o.acc[c] = 1
	}
	return o
}

func (o *l1Oracle) sigMask() uint16 { return uint16(1<<o.cfg.SignatureBits - 1) }

// nextSig is the CPLX signature update: signature = (signature << 1)
// XOR stride, truncated to SignatureBits (Fig. 3).
func (o *l1Oracle) nextSig(sig uint16, stride int8) uint16 {
	return (sig<<1 ^ uint16(uint8(stride))) & o.sigMask()
}

func (o *l1Oracle) regionOf(v memsys.Addr) (uint64, int) {
	region := uint64(v) >> o.cfg.RegionBits
	line := int(v>>memsys.BlockBits) & (1<<(o.cfg.RegionBits-memsys.BlockBits) - 1)
	return region, line
}

func (o *l1Oracle) regionLines() int { return 1 << (o.cfg.RegionBits - memsys.BlockBits) }

// Operate regenerates the full IPCP decision for one demand access and
// pushes every candidate through the matcher.
func (o *l1Oracle) Operate(now int64, a *prefetch.Access, m *opMatcher) {
	if !a.Type.IsDemand() || a.Type == memsys.CodeRead {
		return
	}
	// Per-line class bits feed per-class usefulness (§V).
	if a.HitPrefetched && a.HitClass != memsys.ClassNone {
		o.winUse[a.HitClass]++
		o.useful[a.HitClass]++
	}
	if !a.Hit {
		o.missCounter++
	}
	v := a.VAddr
	if v == 0 {
		v = a.Addr
	}
	block := memsys.BlockNumber(v)
	o.clock++
	if o.cfg.UseRRFilter {
		o.rr.insert(v)
	}

	idx := o.ipIndex(a.IP)
	tag := (a.IP >> 2) & 0x1ff
	e := &o.ip[idx]
	if e.tag != tag || !e.hasLast {
		if e.hasLast && e.tag != tag && e.valid {
			// First conflict: hysteresis keeps the incumbent; the RST
			// still trains (region denseness is IP-independent, §V).
			e.valid = false
			o.updateRST(v, false, 0)
			return
		}
		*e = oraIPEntry{tag: tag, valid: true, lastBlock: block, hasLast: true}
		eligible := o.updateRST(v, false, 0)
		if o.cfg.EnableGS {
			e.streamValid = eligible
			if eligible {
				e.direction = o.rstDirection(v)
			}
		}
		return
	}
	e.valid = true

	// Virtual stride, clamped to the 7-bit signed field (§IV-A).
	strideFull := int64(block) - int64(e.lastBlock)
	stride := int8(0)
	if strideFull >= -64 && strideFull <= 63 {
		stride = int8(strideFull)
	}
	prevBlock := e.lastBlock
	e.lastBlock = block

	// CS: 2-bit hysteresis on the stride (Fig. 2).
	if stride != 0 {
		if stride == e.stride {
			if e.confidence < 3 {
				e.confidence++
			}
		} else {
			if e.confidence > 0 {
				e.confidence--
			}
			if e.confidence == 0 {
				e.stride = stride
			}
		}
	}

	// CPLX: train the CSPT at the current signature, then advance it
	// (Fig. 3).
	if stride != 0 {
		oldSig := e.signature
		c := &o.cspt[oldSig&o.sigMask()]
		if c.stride == stride {
			if c.confidence < 3 {
				c.confidence++
			}
		} else {
			if c.confidence > 0 {
				c.confidence--
			}
			if c.confidence == 0 {
				c.stride = stride
			}
		}
		e.signature = o.nextSig(oldSig, stride)
	}

	// GS: region-stream training with tentative chaining (§IV-C).
	prevRegion := prevBlock >> (o.cfg.RegionBits - memsys.BlockBits)
	curRegion := block >> (o.cfg.RegionBits - memsys.BlockBits)
	carryTentative := false
	carryDir := int8(0)
	if curRegion != prevRegion {
		if pe := o.findRST(prevRegion); pe != nil && pe.trained {
			carryTentative = true
			carryDir = pe.direction
		}
	}
	gsEligible := o.updateRST(v, carryTentative, carryDir)
	if gsEligible {
		e.direction = o.rstDirection(v)
	}
	if o.cfg.EnableGS {
		e.streamValid = gsEligible
	}

	if strideFull == 0 && !e.streamValid {
		return
	}

	// Hierarchical class selection (§V): highest-priority eligible
	// class wins; a low-accuracy GS lets one lower spatial class issue
	// alongside it.
	chosen := memsys.ClassNone
	for _, cls := range o.cfg.Priority {
		if o.eligible(cls, e) {
			chosen = cls
			break
		}
	}
	if chosen == memsys.ClassNone {
		return
	}
	o.issueClass(m, chosen, e, a.IP, v)
	if chosen == memsys.ClassGS && o.measured[memsys.ClassGS] && o.acc[memsys.ClassGS] < o.cfg.ThrottleLow {
		for _, cls := range o.cfg.Priority {
			if cls != memsys.ClassGS && cls != memsys.ClassNL && o.eligible(cls, e) {
				o.issueClass(m, cls, e, a.IP, v)
				break
			}
		}
	}
}

func (o *l1Oracle) ipIndex(ip memsys.Addr) uint64 {
	h := ip>>2 ^ ip>>5 ^ ip>>11
	return h % uint64(len(o.ip))
}

func (o *l1Oracle) eligible(cls memsys.PrefetchClass, e *oraIPEntry) bool {
	switch cls {
	case memsys.ClassGS:
		return o.cfg.EnableGS && e.streamValid
	case memsys.ClassCS:
		return o.cfg.EnableCS && e.confidence >= 2 && e.stride != 0
	case memsys.ClassCPLX:
		if !o.cfg.EnableCPLX {
			return false
		}
		c := o.cspt[e.signature&o.sigMask()]
		return c.confidence >= 1 && c.stride != 0
	case memsys.ClassNL:
		return o.cfg.EnableNL && o.nlOn
	}
	return false
}

func (o *l1Oracle) issueClass(m *opMatcher, cls memsys.PrefetchClass, e *oraIPEntry, ip, v memsys.Addr) {
	switch cls {
	case memsys.ClassGS:
		deg := o.deg[memsys.ClassGS]
		dir := int64(e.direction)
		if dir == 0 {
			dir = 1
		}
		for k := int64(1); k <= int64(deg); k++ {
			o.issue(m, ip, v, dir*k, memsys.ClassGS, int8(dir))
		}
	case memsys.ClassCS:
		deg := o.deg[memsys.ClassCS]
		for k := int64(1); k <= int64(deg); k++ {
			o.issue(m, ip, v, int64(e.stride)*k, memsys.ClassCS, e.stride)
		}
	case memsys.ClassCPLX:
		deg := o.deg[memsys.ClassCPLX]
		sig := e.signature
		off := int64(0)
		issued := 0
		for step := 0; step < deg*2 && issued < deg; step++ {
			c := o.cspt[sig&o.sigMask()]
			if c.stride == 0 {
				break
			}
			if c.confidence >= 1 {
				off += int64(c.stride)
				if o.issue(m, ip, v, off, memsys.ClassCPLX, c.stride) {
					issued++
				}
			}
			sig = o.nextSig(sig, c.stride)
		}
	case memsys.ClassNL:
		o.issue(m, ip, v, 1, memsys.ClassNL, 1)
	}
}

// issue reproduces the candidate pipeline of one prefetch: page clamp
// (§IV), RR filter (§V), metadata encode (§V), and — through the
// matcher — the comparison with the production stream and the cache's
// verdict.
func (o *l1Oracle) issue(m *opMatcher, ip, v memsys.Addr, offBlocks int64, cls memsys.PrefetchClass, stride int8) bool {
	cand := memsys.Addr(int64(memsys.BlockNumber(v))+offBlocks) << memsys.BlockBits
	if !memsys.SamePage(v, cand) {
		o.pageClamped[cls]++
		return false
	}
	if o.cfg.UseRRFilter && o.rr.hit(cand) {
		o.rrFiltered[cls]++
		return false
	}
	meta := uint16(0)
	if o.cfg.EmitMetadata {
		s := stride
		if o.measured[cls] && o.acc[cls] <= o.cfg.ThrottleHigh {
			s = 0
		}
		meta = memsys.Metadata{Class: cls, Stride: s}.Encode()
	}
	ok := m.expect(cand, ip, cls, meta)
	if ok {
		o.issued[cls]++
		if o.cfg.UseRRFilter {
			o.rr.insert(cand)
		}
	}
	return ok
}

// updateRST records an access in the region stream table and reports
// whether the region is (tentatively) dense (Fig. 4, §IV-C).
func (o *l1Oracle) updateRST(v memsys.Addr, carryTentative bool, carryDir int8) bool {
	region, line := o.regionOf(v)
	o.clock++
	e := o.findRST(region)
	if e == nil {
		e = o.allocRST(region)
		e.tentative = carryTentative
		if carryTentative && carryDir != 0 {
			if carryDir > 0 {
				e.posNeg = 40
			} else {
				e.posNeg = 24
			}
		}
	}
	e.lru = o.clock
	if e.lastLine >= 0 && line != e.lastLine {
		if line > e.lastLine {
			if e.posNeg < 63 {
				e.posNeg++
			}
		} else if e.posNeg > 0 {
			e.posNeg--
		}
	}
	e.lastLine = line
	if e.posNeg >= 32 {
		e.direction = 1
	} else {
		e.direction = -1
	}
	if e.bits&(1<<uint(line)) == 0 {
		e.bits |= 1 << uint(line)
		e.dense++
		if float64(e.dense) >= oraDenseFraction*float64(o.regionLines()) {
			e.trained = true
		}
	}
	return e.trained || e.tentative
}

func (o *l1Oracle) findRST(region uint64) *oraRST {
	for i := range o.rst {
		if o.rst[i].valid && o.rst[i].region == region {
			return &o.rst[i]
		}
	}
	return nil
}

func (o *l1Oracle) allocRST(region uint64) *oraRST {
	victim := 0
	oldest := uint64(math.MaxUint64)
	for i := range o.rst {
		if !o.rst[i].valid {
			victim, oldest = i, 0
			break
		}
		if o.rst[i].lru < oldest {
			victim, oldest = i, o.rst[i].lru
		}
	}
	o.rst[victim] = oraRST{region: region, lastLine: -1, posNeg: 32, valid: true}
	return &o.rst[victim]
}

func (o *l1Oracle) rstDirection(v memsys.Addr) int8 {
	region, _ := o.regionOf(v)
	if e := o.findRST(region); e != nil {
		return e.direction
	}
	return 1
}

// Fill mirrors the per-class fill window (§V): every prefetch fill
// counts toward the class's 256-fill accuracy epoch, which closes
// exactly when the counter reaches the window.
func (o *l1Oracle) Fill(now int64, f *prefetch.FillEvent) {
	if !f.Prefetch || f.Class == memsys.ClassNone {
		return
	}
	o.fills[f.Class]++
	o.winFills[f.Class]++
	if o.winFills[f.Class] >= oraThrottleWindow {
		cls := f.Class
		acc := float64(o.winUse[cls]) / float64(o.winFills[cls])
		o.acc[cls] = acc
		o.measured[cls] = true
		o.winFills[cls], o.winUse[cls] = 0, 0
		switch {
		case acc > o.cfg.ThrottleHigh:
			if o.deg[cls] < o.defDeg[cls] {
				o.deg[cls]++
			}
		case acc < o.cfg.ThrottleLow:
			if o.deg[cls] > 1 {
				o.deg[cls]--
			}
		}
	}
}

// Cycle mirrors the MPKC epoch of the tentative-NL gate.
func (o *l1Oracle) Cycle(now int64) {
	const epoch = 4096
	if now-o.cycleMark < epoch {
		return
	}
	mpkc := float64(o.missCounter) * 1000 / float64(now-o.cycleMark)
	o.nlOn = mpkc < o.cfg.NLThresholdMPKC
	o.missCounter = 0
	o.cycleMark = now
}

// ResetStats mirrors the warmup-boundary counter reset: observation
// counters clear, architectural state (tables, degrees, windows, NL
// gate) persists.
func (o *l1Oracle) ResetStats() {
	o.issued = [memsys.NumClasses]uint64{}
	o.fills = [memsys.NumClasses]uint64{}
	o.useful = [memsys.NumClasses]uint64{}
	o.rrFiltered = [memsys.NumClasses]uint64{}
	o.pageClamped = [memsys.NumClasses]uint64{}
}

// postFill cross-checks the throttle state against the production
// prefetcher after each fill: if a window closed a fill early or late,
// or applied the wrong accuracy, degree and accuracy diverge here at
// the exact fill where it happened.
func (o *l1Oracle) postFill(rep func(kind, detail string)) {
	for c := 1; c < memsys.NumClasses; c++ {
		cls := memsys.PrefetchClass(c)
		if d := o.impl.ClassDegree(cls); d != o.deg[c] {
			rep("throttle-degree", fmt.Sprintf("class %v degree %d, reference %d", cls, d, o.deg[c]))
		}
		if a := o.impl.ClassAccuracy(cls); a != o.acc[c] {
			rep("throttle-accuracy", fmt.Sprintf("class %v accuracy %v, reference %v", cls, a, o.acc[c]))
		}
	}
}

// postCycle cross-checks the NL gate.
func (o *l1Oracle) postCycle(rep func(kind, detail string)) {
	if got := o.impl.NLEnabled(); got != o.nlOn {
		rep("nl-gate", fmt.Sprintf("NL gate %v, reference %v", got, o.nlOn))
	}
}

// finishChecks compares the cumulative observation counters.
func (o *l1Oracle) finishChecks(rep func(kind, detail string)) {
	type pair struct {
		name      string
		got, want [memsys.NumClasses]uint64
	}
	for _, p := range []pair{
		{"issued", o.impl.Issued, o.issued},
		{"fills", o.impl.Fills, o.fills},
		{"useful", o.impl.Useful, o.useful},
		{"rr-filtered", o.impl.RRFiltered, o.rrFiltered},
		{"page-clamped", o.impl.PageClamped, o.pageClamped},
	} {
		if p.got != p.want {
			rep("counter-"+p.name, fmt.Sprintf("implementation %v, reference %v", p.got, p.want))
		}
	}
}
