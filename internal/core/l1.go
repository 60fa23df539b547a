// Package core implements the paper's contribution: Instruction
// Pointer Classifier-based spatial Prefetching (IPCP) — the bouquet of
// tiny per-class prefetchers at the L1-D (constant stride, complex
// stride, global stream, tentative next-line) and the metadata-driven
// IPCP at the L2. The data structures mirror Figures 2–6 and the
// sizing of Table I.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"unsafe"

	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/telemetry"
)

// L1Config parametrizes the L1-D IPCP. The zero value is not valid;
// use DefaultL1Config. The class-enable switches and the priority
// order exist for the paper's ablations (Fig. 13a/13b). It is also the
// wire form of an IPCP variant (experiments.RunSpec.IPCPL1): a JSON
// object decodes on top of the paper's defaults, so a variant names
// only what it changes.
type L1Config struct {
	IPTableEntries int `json:"ip_table_entries"` // direct-mapped; paper: 64
	RSTEntries     int `json:"rst_entries"`      // fully associative LRU; paper: 8
	// SignatureBits is the CPLX signature width; the CSPT it indexes has
	// 1<<SignatureBits entries (paper: 7 bits, 128 entries).
	SignatureBits int `json:"signature_bits"`
	RegionBits    int `json:"region_bits"` // log2 region bytes; paper: 11 (2KB)

	// Default prefetch degrees per class (paper: CS 3, CPLX 3, GS 6).
	DegreeCS   int `json:"degree_cs"`
	DegreeCPLX int `json:"degree_cplx"`
	DegreeGS   int `json:"degree_gs"`

	// Accuracy watermarks for coordinated throttling (paper: 0.75 /
	// 0.40), applied once per throttleWindow fills of a class.
	ThrottleHigh float64 `json:"throttle_high"`
	ThrottleLow  float64 `json:"throttle_low"`

	// NLThresholdMPKC gates the tentative next-line class: NL is on
	// while demand misses per kilo-cycle stay below this value (the
	// paper uses MPKI 50 and notes misses-per-kilo-cycles is equally
	// effective; the prefetcher observes cycles, not retirements).
	NLThresholdMPKC float64 `json:"nl_threshold_mpkc"`

	// Class enables (Fig. 13a isolation study).
	EnableCS   bool `json:"enable_cs"`
	EnableCPLX bool `json:"enable_cplx"`
	EnableGS   bool `json:"enable_gs"`
	EnableNL   bool `json:"enable_nl"`

	// Priority is the hierarchical class order (Fig. 13b); default
	// GS > CS > CPLX > NL.
	Priority []memsys.PrefetchClass `json:"priority"`

	// UseRRFilter enables the recent-request filter (ablation).
	UseRRFilter bool `json:"use_rr_filter"`

	// EmitMetadata controls whether candidates carry the 9-bit L1→L2
	// payload (§VI-B2 studies turning it off).
	EmitMetadata bool `json:"emit_metadata"`

	// asWritten is the object this configuration was decoded from, kept
	// when it names a field L1Config lacks (a knob an earlier build had):
	// Validate refuses it, and it encodes as written, never as one that runs.
	asWritten []byte
}

// UnmarshalJSON decodes on top of DefaultL1Config, so {"degree_cplx":4}
// is the paper's IPCP with one parameter changed. An unknown field
// still decodes and is refused by Validate instead: a decode error
// would cost a journal the rest of the segment holding it.
func (c *L1Config) UnmarshalJSON(b []byte) error {
	type plain L1Config
	v := plain(DefaultL1Config())
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*c = L1Config(v)
	strict := json.NewDecoder(bytes.NewReader(b))
	strict.DisallowUnknownFields()
	if strict.Decode(new(plain)) != nil {
		c.asWritten = bytes.Clone(b)
	}
	return nil
}

// MarshalJSON encodes a configuration that named an unknown field as
// the object it was decoded from.
func (c L1Config) MarshalJSON() ([]byte, error) {
	if c.asWritten != nil {
		return c.asWritten, nil
	}
	type plain L1Config
	return json.Marshal(plain(c))
}

// The paper's dense threshold (§IV-C) and throttling epoch (§V): a
// region trains as dense once this fraction of its lines is touched,
// and a class's accuracy is taken over each throttleWindow of its
// prefetch fills.
const (
	denseFraction  = 0.75
	throttleWindow = 256
)

// maxTableBytes caps the tables one configuration may allocate, so a
// config that arrives in a request body cannot allocate the host.
const maxTableBytes = 1 << 20

// Validate rejects what NewL1IPCP and Operate assume without checking:
// sizes that are allocated or used as a modulus, widths that are shift
// counts, degrees that are loop bounds. It reports the first problem.
func (c L1Config) Validate() (err error) {
	check := func(ok bool, format string, args ...any) {
		if err == nil && !ok {
			err = fmt.Errorf("core: "+format, args...)
		}
	}
	between := func(name string, v, lo, hi int) {
		check(v >= lo && v <= hi, "%s = %d, want %d..%d", name, v, lo, hi)
	}
	check(c.asWritten == nil, "%s names a field L1Config does not have", c.asWritten)
	between("ip_table_entries", c.IPTableEntries, 1, maxTableBytes/int(unsafe.Sizeof(ipEntry{})))
	between("rst_entries", c.RSTEntries, 1, maxTableBytes/int(unsafe.Sizeof(rstEntry{})))
	between("signature_bits", c.SignatureBits, 1, 16)
	// The RST tracks a region's lines in one 64-bit vector.
	between("region_bits", c.RegionBits, memsys.BlockBits+1, memsys.BlockBits+6)
	// A page holds 64 lines and IPCP never leaves the page.
	between("degree_cs", c.DegreeCS, 1, 64)
	between("degree_cplx", c.DegreeCPLX, 1, 64)
	between("degree_gs", c.DegreeGS, 1, 64)
	check(c.ThrottleLow <= c.ThrottleHigh, "throttle_low %v above throttle_high %v", c.ThrottleLow, c.ThrottleHigh)
	check(c.NLThresholdMPKC >= 0, "nl_threshold_mpkc = %v, want >= 0", c.NLThresholdMPKC)
	var seen [memsys.NumClasses]bool
	perm := len(c.Priority) == memsys.NumClasses-1
	for _, cls := range c.Priority {
		if perm = perm && cls != memsys.ClassNone && int(cls) < memsys.NumClasses && !seen[cls]; perm {
			seen[cls] = true
		}
	}
	check(perm, "priority %v is not a permutation of CS, CPLX, GS, NL", c.Priority)
	return err
}

// DefaultL1Config returns the paper's configuration.
func DefaultL1Config() L1Config {
	return L1Config{
		IPTableEntries:  64,
		RSTEntries:      8,
		SignatureBits:   7,
		RegionBits:      11,
		DegreeCS:        3,
		DegreeCPLX:      3,
		DegreeGS:        6,
		ThrottleHigh:    0.75,
		ThrottleLow:     0.40,
		NLThresholdMPKC: 50,
		EnableCS:        true,
		EnableCPLX:      true,
		EnableGS:        true,
		EnableNL:        true,
		Priority: []memsys.PrefetchClass{
			memsys.ClassGS, memsys.ClassCS, memsys.ClassCPLX, memsys.ClassNL,
		},
		UseRRFilter:  true,
		EmitMetadata: true,
	}
}

// ipEntry is one IP-table entry (Fig. 5). The simulator stores the
// full last virtual block address; the hardware keeps only the two
// low bits of the virtual page plus the 6-bit line offset, which
// suffice to recompute the stride across adjacent pages (§IV-A) — the
// storage accounting in Table I uses the hardware widths.
type ipEntry struct {
	tag   uint64
	valid bool

	lastBlock   uint64 // last virtual cache-block address
	hasLast     bool
	stride      int8
	confidence  uint8 // confBits wide
	streamValid bool
	direction   int8 // +1 / -1
	signature   uint16
	// lastClass is telemetry bookkeeping (class-transition events), not
	// architectural state.
	lastClass memsys.PrefetchClass
}

// csptEntry is one Complex Stride Prediction Table entry (Fig. 3).
type csptEntry struct {
	stride     int8
	confidence uint8 // confBits wide
}

// rstEntry is one Region Stream Table entry (Fig. 4).
type rstEntry struct {
	region    uint64
	lastLine  int    // last line offset within the region
	bits      uint64 // one bit per region line
	posNeg    int    // rstPosNegBits-wide saturating counter, initialized mid-range
	dense     int    // dense-count
	trained   bool
	tentative bool
	direction int8
	lru       uint64
	valid     bool
}

// classState carries the throttle machinery of one class.
type classState struct {
	degree    int // current throttled degree
	defDegree int
	fills     uint64 // window counters
	useful    uint64
	accuracy  float64
	measured  bool
}

// L1IPCP is the L1-D bouquet prefetcher.
type L1IPCP struct {
	cfg L1Config

	ipTable []ipEntry
	cspt    []csptEntry
	rst     []rstEntry
	rr      *rrFilter

	classes [memsys.NumClasses]classState

	// tentative-NL machinery: demand misses per kilo-cycle.
	missCounter uint64
	cycleMark   int64
	nlOn        bool

	clock uint64
	now   int64 // last observed cycle (telemetry timestamps)

	// tr is the optional event tracer; nil (the default) keeps every
	// emit site on a single predictable branch.
	tr   *telemetry.Tracer
	core int

	// Stats: per-class attribution of the prefetch lifecycle. All reset
	// at the warmup boundary; none feed back into prefetch decisions.
	Issued        [memsys.NumClasses]uint64
	Fills         [memsys.NumClasses]uint64
	Useful        [memsys.NumClasses]uint64
	RRFiltered    [memsys.NumClasses]uint64
	PageClamped   [memsys.NumClasses]uint64
	ThrottleUps   [memsys.NumClasses]uint64
	ThrottleDowns [memsys.NumClasses]uint64

	// ClassTransitions counts IPs switching class.
	ClassTransitions uint64
}

// NewL1IPCP builds the L1-D prefetcher.
func NewL1IPCP(cfg L1Config) *L1IPCP {
	if cfg.IPTableEntries <= 0 {
		cfg = DefaultL1Config()
	}
	p := &L1IPCP{
		cfg:     cfg,
		ipTable: make([]ipEntry, cfg.IPTableEntries),
		cspt:    make([]csptEntry, 1<<cfg.SignatureBits), // indexed by the signature
		rst:     make([]rstEntry, cfg.RSTEntries),
		rr:      newRRFilter(),
		nlOn:    true,
	}
	p.classes[memsys.ClassCS] = classState{degree: cfg.DegreeCS, defDegree: cfg.DegreeCS, accuracy: 1}
	p.classes[memsys.ClassCPLX] = classState{degree: cfg.DegreeCPLX, defDegree: cfg.DegreeCPLX, accuracy: 1}
	p.classes[memsys.ClassGS] = classState{degree: cfg.DegreeGS, defDegree: cfg.DegreeGS, accuracy: 1}
	p.classes[memsys.ClassNL] = classState{degree: 1, defDegree: 1, accuracy: 1}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *L1IPCP) Name() string { return "ipcp" }

// Config returns the configuration the prefetcher was built with — the
// audit oracle builds its reference model from it.
func (p *L1IPCP) Config() L1Config { return p.cfg }

func (p *L1IPCP) regionOf(v memsys.Addr) (region uint64, line int) {
	region = uint64(v) >> p.cfg.RegionBits
	line = int(v>>memsys.BlockBits) & (1<<(p.cfg.RegionBits-memsys.BlockBits) - 1)
	return
}

func (p *L1IPCP) regionLines() int { return 1 << (p.cfg.RegionBits - memsys.BlockBits) }

func (p *L1IPCP) sigMask() uint16 { return uint16(1<<p.cfg.SignatureBits - 1) }

// ipIndex hashes the instruction pointer into the direct-mapped IP
// table. Two higher shifted copies are folded in so that regularly
// spaced load IPs (compilers emit those, at strides of 8 or 16 bytes)
// do not alias systematically on any single power of two.
func (p *L1IPCP) ipIndex(ip memsys.Addr) uint64 {
	h := ip>>2 ^ ip>>5 ^ ip>>11
	return h % uint64(len(p.ipTable))
}

// ipTag is the ipTagBits-wide partial tag stored per entry.
func ipTag(ip memsys.Addr) uint64 { return (ip >> 2) & (1<<ipTagBits - 1) }

// The model's limits, from the hardware widths (storage.go): a stride
// outside -64..63 blocks does not train, confidence saturates at 3, and
// the 6-bit pos/neg counter at 63, starting from (and voting positive
// at) 32.
const (
	strideMax = 1<<(strideBits-1) - 1
	confMax   = 1<<confBits - 1
	posNegMax = 1<<rstPosNegBits - 1
	posNegMid = 1 << (rstPosNegBits - 1)
)

// advanceSig implements signature = (signature << 1) XOR stride.
func (p *L1IPCP) advanceSig(sig uint16, stride int8) uint16 {
	return (sig<<1 ^ uint16(uint8(stride))) & p.sigMask()
}

// Operate implements prefetch.Prefetcher: classify the IP and issue
// prefetches for the winning class.
func (p *L1IPCP) Operate(now int64, a *prefetch.Access, iss prefetch.Issuer) {
	if !a.Type.IsDemand() || a.Type == memsys.CodeRead {
		return
	}
	p.now = now
	// Per-class usefulness feedback (per-line class bits, §V).
	if a.HitPrefetched && a.HitClass != memsys.ClassNone {
		p.classes[a.HitClass].useful++
		p.Useful[a.HitClass]++
	}
	if !a.Hit {
		p.missCounter++
	}
	v := a.VAddr
	if v == 0 {
		v = a.Addr
	}
	block := memsys.BlockNumber(v)
	p.clock++

	if p.cfg.UseRRFilter {
		p.rr.insert(v)
	}

	// --- IP table lookup with hysteresis (§V) ---
	idx := p.ipIndex(a.IP)
	tag := ipTag(a.IP)
	e := &p.ipTable[idx]
	if e.tag != tag || !e.hasLast {
		if e.hasLast && e.tag != tag && e.valid {
			// First conflict: keep the incumbent, clear valid. The
			// RST still trains — region denseness is IP-independent
			// ("RST is checked concurrently for its training", §V).
			e.valid = false
			p.updateRST(v, false, 0)
			return
		}
		// Allocate (or hand over after a second conflict).
		*e = ipEntry{tag: tag, valid: true, lastBlock: block, hasLast: true}
		p.trainRST(e, v, block)
		return
	}
	e.valid = true

	// --- stride computation (virtual, page-crossing aware, §IV-A) ---
	strideFull := int64(block) - int64(e.lastBlock)
	stride := int8(0)
	if strideFull >= -strideMax-1 && strideFull <= strideMax {
		stride = int8(strideFull)
	}
	prevBlock := e.lastBlock
	e.lastBlock = block

	// --- CS training ---
	if stride != 0 {
		if stride == e.stride {
			if e.confidence < confMax {
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

	// --- CPLX training (Fig. 3) ---
	var oldSig uint16
	if stride != 0 {
		oldSig = e.signature
		c := &p.cspt[oldSig&p.sigMask()]
		if c.stride == stride {
			if c.confidence < confMax {
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
		e.signature = p.advanceSig(oldSig, stride)
	}

	// --- GS training via the RST (Fig. 4) ---
	gsEligible := p.trainRSTWithPrev(e, v, block, prevBlock)
	if p.cfg.EnableGS {
		e.streamValid = gsEligible
	}

	if strideFull == 0 && !e.streamValid {
		return // same-block re-access: nothing new to prefetch
	}

	// --- class selection and prefetch (hierarchical priority, §V) ---
	p.prefetchFor(e, a, v, iss)
}

// trainRST handles the first access of a (re)allocated IP entry.
func (p *L1IPCP) trainRST(e *ipEntry, v memsys.Addr, block uint64) {
	eligible := p.updateRST(v, false, 0)
	if p.cfg.EnableGS {
		e.streamValid = eligible
		if eligible {
			e.direction = p.rstDirection(v)
		}
	}
}

// trainRSTWithPrev updates the RST for the access and applies the
// tentative-region chaining (§IV-C): if the IP's previous region was
// trained dense, the new region is tentatively dense.
func (p *L1IPCP) trainRSTWithPrev(e *ipEntry, v memsys.Addr, block, prevBlock uint64) bool {
	prevRegion := prevBlock >> (p.cfg.RegionBits - memsys.BlockBits)
	curRegion := block >> (p.cfg.RegionBits - memsys.BlockBits)
	carryTentative := false
	carryDir := int8(0)
	if curRegion != prevRegion {
		if pe := p.findRST(prevRegion); pe != nil && pe.trained {
			carryTentative = true
			carryDir = pe.direction
		}
	}
	eligible := p.updateRST(v, carryTentative, carryDir)
	if eligible {
		e.direction = p.rstDirection(v)
	}
	return eligible
}

// updateRST records the access in the region stream table and reports
// whether the region is (tentatively) dense, making its IPs GS IPs.
// A tentatively dense region inherits the trained direction of the
// IP's previous region (carryDir) until its own votes accumulate.
func (p *L1IPCP) updateRST(v memsys.Addr, carryTentative bool, carryDir int8) bool {
	region, line := p.regionOf(v)
	p.clock++
	e := p.findRST(region)
	if e == nil {
		e = p.allocRST(region)
		e.tentative = carryTentative
		if carryTentative && carryDir != 0 {
			// Bias the pos/neg counter toward the inherited direction
			// so a single spurious first vote cannot flip it.
			if carryDir > 0 {
				e.posNeg = posNegMid + 8
			} else {
				e.posNeg = posNegMid - 8
			}
		}
	}
	e.lru = p.clock

	// Direction voting: compare to the last line offset in the region
	// (the allocation access carries no vote — there is no previous
	// offset within the region yet).
	if e.lastLine >= 0 && line != e.lastLine {
		if line > e.lastLine {
			if e.posNeg < posNegMax {
				e.posNeg++
			}
		} else if e.posNeg > 0 {
			e.posNeg--
		}
	}
	e.lastLine = line
	if e.posNeg >= posNegMid {
		e.direction = 1
	} else {
		e.direction = -1
	}

	if e.bits&(1<<uint(line)) == 0 {
		e.bits |= 1 << uint(line)
		e.dense++
		if float64(e.dense) >= denseFraction*float64(p.regionLines()) {
			e.trained = true
		}
	}
	return e.trained || e.tentative
}

func (p *L1IPCP) findRST(region uint64) *rstEntry {
	for i := range p.rst {
		if p.rst[i].valid && p.rst[i].region == region {
			return &p.rst[i]
		}
	}
	return nil
}

func (p *L1IPCP) allocRST(region uint64) *rstEntry {
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range p.rst {
		if !p.rst[i].valid {
			victim, oldest = i, 0
			break
		}
		if p.rst[i].lru < oldest {
			victim, oldest = i, p.rst[i].lru
		}
	}
	p.rst[victim] = rstEntry{
		region: region, lastLine: -1,
		posNeg: posNegMid,
		valid:  true,
	}
	return &p.rst[victim]
}

func (p *L1IPCP) rstDirection(v memsys.Addr) int8 {
	region, _ := p.regionOf(v)
	if e := p.findRST(region); e != nil {
		return e.direction
	}
	return 1
}

// prefetchFor picks the highest-priority eligible class and issues its
// prefetches. If GS wins but its accuracy sits below the low
// watermark, the lower classes also get to prefetch (§V, coordinated
// throttling).
func (p *L1IPCP) prefetchFor(e *ipEntry, a *prefetch.Access, v memsys.Addr, iss prefetch.Issuer) {
	chosen := memsys.ClassNone
	for _, cls := range p.cfg.Priority {
		if p.eligible(cls, e) {
			chosen = cls
			break
		}
	}
	if chosen != e.lastClass {
		p.ClassTransitions++
		if p.tr != nil {
			p.tr.Emit(telemetry.Event{
				Cycle: p.now, Kind: telemetry.EvClassTransition,
				Level: memsys.LevelL1D, Core: p.core, Class: chosen,
				IP: a.IP, Old: int(e.lastClass), New: int(chosen),
			})
		}
		e.lastClass = chosen
	}
	p.issueClass(chosen, e, a.IP, v, iss) // ClassNone issues nothing

	if chosen == memsys.ClassGS {
		st := &p.classes[memsys.ClassGS]
		if st.measured && st.accuracy < p.cfg.ThrottleLow {
			for _, cls := range p.cfg.Priority {
				if cls != memsys.ClassGS && cls != memsys.ClassNL && p.eligible(cls, e) {
					p.issueClass(cls, e, a.IP, v, iss)
					break
				}
			}
		}
	}
}

// eligible reports whether the IP currently belongs to the class.
func (p *L1IPCP) eligible(cls memsys.PrefetchClass, e *ipEntry) bool {
	switch cls {
	case memsys.ClassGS:
		return p.cfg.EnableGS && e.streamValid
	case memsys.ClassCS:
		return p.cfg.EnableCS && e.confidence >= 2 && e.stride != 0
	case memsys.ClassCPLX:
		if !p.cfg.EnableCPLX {
			return false
		}
		c := p.cspt[e.signature&p.sigMask()]
		return c.confidence >= 1 && c.stride != 0
	case memsys.ClassNL:
		return p.cfg.EnableNL && p.nlOn
	}
	return false
}

// issueClass generates the candidates of one class.
func (p *L1IPCP) issueClass(cls memsys.PrefetchClass, e *ipEntry, ip, v memsys.Addr, iss prefetch.Issuer) {
	switch cls {
	case memsys.ClassGS:
		deg := p.classes[memsys.ClassGS].degree
		dir := int64(e.direction)
		if dir == 0 {
			dir = 1
		}
		for k := int64(1); k <= int64(deg); k++ {
			p.issue(iss, ip, v, dir*k, memsys.ClassGS, int8(dir))
		}
	case memsys.ClassCS:
		deg := p.classes[memsys.ClassCS].degree
		for k := int64(1); k <= int64(deg); k++ {
			p.issue(iss, ip, v, int64(e.stride)*k, memsys.ClassCS, e.stride)
		}
	case memsys.ClassCPLX:
		deg := p.classes[memsys.ClassCPLX].degree
		sig := e.signature
		off := int64(0)
		issued := 0
		for step := 0; step < deg*2 && issued < deg; step++ {
			c := p.cspt[sig&p.sigMask()]
			if c.stride == 0 {
				break
			}
			if c.confidence >= 1 {
				off += int64(c.stride)
				if p.issue(iss, ip, v, off, memsys.ClassCPLX, c.stride) {
					issued++
				}
			}
			sig = p.advanceSig(sig, c.stride)
		}
	case memsys.ClassNL:
		p.issue(iss, ip, v, 1, memsys.ClassNL, 1)
	}
}

// issue emits one candidate at v + off blocks, respecting the page
// boundary and the RR filter, and attaching the L1→L2 metadata.
func (p *L1IPCP) issue(iss prefetch.Issuer, ip, v memsys.Addr, offBlocks int64, cls memsys.PrefetchClass, stride int8) bool {
	cand := memsys.Addr(int64(memsys.BlockNumber(v))+offBlocks) << memsys.BlockBits
	if !memsys.SamePage(v, cand) {
		// IPCP never crosses the page boundary (§IV).
		p.PageClamped[cls]++
		if p.tr != nil {
			p.tr.Emit(telemetry.Event{
				Cycle: p.now, Kind: telemetry.EvPageClamped,
				Level: memsys.LevelL1D, Core: p.core, Class: cls,
				Addr: cand, IP: ip,
			})
		}
		return false
	}
	if p.cfg.UseRRFilter && p.rr.hit(cand) {
		p.RRFiltered[cls]++
		if p.tr != nil {
			p.tr.Emit(telemetry.Event{
				Cycle: p.now, Kind: telemetry.EvRRFiltered,
				Level: memsys.LevelL1D, Core: p.core, Class: cls,
				Addr: cand, IP: ip,
			})
		}
		return false
	}
	meta := uint16(0)
	if p.cfg.EmitMetadata {
		s := stride
		// Stride metadata is passed down only when the class accuracy
		// clears the high watermark (§V, metadata decoding).
		if st := &p.classes[cls]; st.measured && st.accuracy <= p.cfg.ThrottleHigh {
			s = 0
		}
		meta = memsys.Metadata{Class: cls, Stride: s}.Encode()
	}
	ok := iss.Issue(prefetch.Candidate{
		Addr:  cand,
		IP:    ip,
		Class: cls,
		Meta:  meta,
	})
	if ok {
		p.Issued[cls]++
		if p.cfg.UseRRFilter {
			p.rr.insert(cand)
		}
	}
	return ok
}

// Fill implements prefetch.Prefetcher: per-class fill counting drives
// the accuracy window.
func (p *L1IPCP) Fill(now int64, f *prefetch.FillEvent) {
	if !f.Prefetch || f.Class == memsys.ClassNone {
		return
	}
	p.now = now
	p.Fills[f.Class]++
	st := &p.classes[f.Class]
	st.fills++
	if st.fills >= throttleWindow {
		p.throttle(f.Class)
	}
}

// throttle applies the epoch's accuracy to the class degree (§V,
// coordinated prefetch throttling).
func (p *L1IPCP) throttle(cls memsys.PrefetchClass) {
	st := &p.classes[cls]
	acc := float64(st.useful) / float64(st.fills)
	st.accuracy = acc
	st.measured = true
	st.fills, st.useful = 0, 0
	old := st.degree
	switch {
	case acc > p.cfg.ThrottleHigh:
		if st.degree < st.defDegree {
			st.degree++
		}
	case acc < p.cfg.ThrottleLow:
		if st.degree > 1 {
			st.degree--
		}
	}
	if st.degree > old {
		p.ThrottleUps[cls]++
	} else if st.degree < old {
		p.ThrottleDowns[cls]++
	}
	if p.tr != nil {
		p.tr.Emit(telemetry.Event{
			Cycle: p.now, Kind: telemetry.EvThrottle,
			Level: memsys.LevelL1D, Core: p.core, Class: cls,
			Old: old, New: st.degree, Acc: acc,
		})
	}
}

// Cycle implements prefetch.Prefetcher: the MPKC epoch for the
// tentative-NL gate.
func (p *L1IPCP) Cycle(now int64) {
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
			Level: memsys.LevelL1D, Core: p.core, Class: memsys.ClassNL,
			Old: boolToInt(was), New: boolToInt(p.nlOn),
		})
	}
}

// NextEvent implements prefetch.NextEventer: the only clocked work is
// the MPKC epoch close, exactly 4096 cycles after the last mark. The
// bound keeps the epoch denominator bit-identical under fast-forwarding
// (the epoch must close at cycleMark+4096, never later).
func (p *L1IPCP) NextEvent(now int64) int64 {
	next := p.cycleMark + 4096
	if next <= now {
		return now + 1
	}
	return next
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ClassAccuracy exposes a class's last measured accuracy (testing and
// reports).
func (p *L1IPCP) ClassAccuracy(cls memsys.PrefetchClass) float64 {
	return p.classes[cls].accuracy
}

// ClassDegree exposes a class's current throttled degree.
func (p *L1IPCP) ClassDegree(cls memsys.PrefetchClass) int {
	return p.classes[cls].degree
}

// NLEnabled reports the tentative-NL gate state.
func (p *L1IPCP) NLEnabled() bool { return p.nlOn }

// SetTracer implements telemetry.Traceable: attach (or detach, with
// nil) the event tracer. core tags emitted events.
func (p *L1IPCP) SetTracer(tr *telemetry.Tracer, core int) {
	p.tr = tr
	p.core = core
}

// ResetStats implements telemetry.StatsResetter: zero the observation
// counters at the warmup boundary. Architectural state — table
// contents, throttle degrees, accuracy windows, the NL gate — is
// untouched, so behavior is identical with or without the reset.
func (p *L1IPCP) ResetStats() {
	p.Issued = [memsys.NumClasses]uint64{}
	p.Fills = [memsys.NumClasses]uint64{}
	p.Useful = [memsys.NumClasses]uint64{}
	p.RRFiltered = [memsys.NumClasses]uint64{}
	p.PageClamped = [memsys.NumClasses]uint64{}
	p.ThrottleUps = [memsys.NumClasses]uint64{}
	p.ThrottleDowns = [memsys.NumClasses]uint64{}
	p.ClassTransitions = 0
	p.rr.resetStats()
}

// TelemetrySnapshot implements telemetry.Introspector: export the
// per-class counters and live throttle state.
func (p *L1IPCP) TelemetrySnapshot() telemetry.Snapshot {
	s := telemetry.Snapshot{
		Name:             p.Name(),
		Level:            memsys.LevelL1D,
		NLOn:             p.nlOn,
		ClassTransitions: p.ClassTransitions,
	}
	s.RRProbes, s.RRHits = p.rr.stats()
	for c := 0; c < memsys.NumClasses; c++ {
		st := &p.classes[c]
		s.Classes[c] = telemetry.ClassStats{
			Issued:           p.Issued[c],
			Fills:            p.Fills[c],
			Useful:           p.Useful[c],
			RRFiltered:       p.RRFiltered[c],
			PageClamped:      p.PageClamped[c],
			ThrottleUps:      p.ThrottleUps[c],
			ThrottleDowns:    p.ThrottleDowns[c],
			Degree:           st.degree,
			Accuracy:         st.accuracy,
			AccuracyMeasured: st.measured,
		}
	}
	return s
}

// DebugEntries invokes f for every trained IP-table entry (testing and
// diagnostics).
func (p *L1IPCP) DebugEntries(f func(idx int, tag uint64, stride int8, conf uint8, stream bool, sig uint16)) {
	for i := range p.ipTable {
		e := &p.ipTable[i]
		if e.hasLast {
			f(i, e.tag, e.stride, e.confidence, e.streamValid, e.signature)
		}
	}
}
