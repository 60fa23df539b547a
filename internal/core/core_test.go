package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// recorder collects issued candidates.
type recorder struct {
	cands []prefetch.Candidate
}

func (r *recorder) Issue(c prefetch.Candidate) bool {
	r.cands = append(r.cands, c)
	return true
}

func (r *recorder) reset() { r.cands = r.cands[:0] }

func (r *recorder) byClass(cls memsys.PrefetchClass) []prefetch.Candidate {
	var out []prefetch.Candidate
	for _, c := range r.cands {
		if c.Class == cls {
			out = append(out, c)
		}
	}
	return out
}

func demand(p prefetch.Prefetcher, rec *recorder, now int64, ip, vaddr uint64, hit bool) {
	p.Operate(now, &prefetch.Access{
		Addr: vaddr, VAddr: vaddr, IP: ip, Type: memsys.Load, Hit: hit,
	}, rec)
}

// --- CS class ----------------------------------------------------------

func TestCSLearnsConstantStride(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400100
	base := uint64(0x10_0000)
	stride := uint64(3)
	for i := uint64(0); i < 5; i++ {
		demand(p, rec, int64(i), ip, base+i*stride*memsys.BlockSize, false)
	}
	rec.reset()
	cur := base + 5*stride*memsys.BlockSize
	demand(p, rec, 10, ip, cur, false)
	cs := rec.byClass(memsys.ClassCS)
	if len(cs) == 0 {
		t.Fatal("CS class issued nothing for a constant-stride IP")
	}
	if len(cs) > p.cfg.DegreeCS {
		t.Errorf("CS issued %d > degree %d", len(cs), p.cfg.DegreeCS)
	}
	// Candidates land on the stride lattice ahead of the trigger
	// (nearer ones may be RR-filter-suppressed as already issued).
	for _, c := range cs {
		d := int64(memsys.BlockNumber(c.Addr)) - int64(memsys.BlockNumber(cur))
		if d <= 0 || d%int64(stride) != 0 || d > int64(stride)*int64(p.cfg.DegreeCS) {
			t.Errorf("CS candidate at delta %d, want positive multiple of %d within degree", d, stride)
		}
	}
}

func TestCSHandlesPageCrossingStride(t *testing.T) {
	// The paper's example: offset 63 → 0 with a page change in the
	// forward direction is stride +1 (§IV-A). Training must survive
	// page crossings.
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400200
	base := uint64(0x20_0000) + 60*memsys.BlockSize // near end of page
	for i := uint64(0); i < 10; i++ {
		demand(p, rec, int64(i), ip, base+i*memsys.BlockSize, false)
	}
	// The last few accesses are in the next page; CS must be trained.
	rec.reset()
	demand(p, rec, 20, ip, base+10*memsys.BlockSize, false)
	if len(rec.byClass(memsys.ClassCS)) == 0 {
		t.Error("CS lost confidence across a page crossing")
	}
}

func TestCSNoConfidenceOnAlternatingStride(t *testing.T) {
	// The paper's motivating example: strides 1,2,1,2 starve the CS
	// class of confidence (coverage zero) — CPLX handles it instead.
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400300
	addr := uint64(0x30_0000)
	deltas := []uint64{1, 2}
	for i := 0; i < 20; i++ {
		demand(p, rec, int64(i), ip, addr, false)
		addr += deltas[i%2] * memsys.BlockSize
	}
	if len(rec.byClass(memsys.ClassCS)) != 0 {
		t.Error("CS prefetched on an alternating-stride pattern")
	}
	if len(rec.byClass(memsys.ClassCPLX)) == 0 {
		t.Error("CPLX did not cover the alternating-stride pattern")
	}
}

// --- CPLX class --------------------------------------------------------

func TestCPLXFollowsPattern(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400400
	addr := uint64(0x40_0000)
	deltas := []uint64{3, 3, 4} // paper's 66%-coverage CS example
	for i := 0; i < 60; i++ {
		demand(p, rec, int64(i), ip, addr, false)
		addr += deltas[i%3] * memsys.BlockSize
	}
	cplx := rec.byClass(memsys.ClassCPLX)
	if len(cplx) == 0 {
		t.Fatal("CPLX issued nothing on a 3,3,4 pattern")
	}
}

func TestSignatureAdvance(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	// signature = (signature << 1) XOR stride, masked to 7 bits.
	if got := p.advanceSig(0, 3); got != 3 {
		t.Errorf("advanceSig(0,3) = %d, want 3", got)
	}
	if got := p.advanceSig(3, 3); got != (3<<1)^3 {
		t.Errorf("advanceSig(3,3) = %d, want %d", got, (3<<1)^3)
	}
	if got := p.advanceSig(0x7f, 0); got > p.sigMask() {
		t.Errorf("signature escaped its mask: %#x", got)
	}
	f := func(sig uint16, stride int8) bool {
		return p.advanceSig(sig&p.sigMask(), stride) <= p.sigMask()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- GS class ----------------------------------------------------------

// touchDense walks a 2KB region densely with rotating IPs, returning
// the recorder.
func touchDense(p *L1IPCP, rec *recorder, regionBase uint64, ips []uint64, skip int) {
	now := int64(1000)
	i := 0
	for l := 0; l < 32; l++ {
		if skip > 0 && l%skip == 0 && l != 0 {
			continue
		}
		ip := ips[i%len(ips)]
		i++
		demand(p, rec, now, ip, regionBase+uint64(l)*memsys.BlockSize, false)
		now++
	}
}

func TestGSTrainsOnDenseRegion(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	ips := []uint64{0x400500, 0x400504, 0x400508}
	region := uint64(0x50_0000)
	touchDense(p, rec, region, ips, 0)
	// The region is dense; accesses to the NEXT region by these IPs
	// should be GS-classified.
	rec.reset()
	demand(p, rec, 2000, ips[0], region+2048, false)
	demand(p, rec, 2001, ips[1], region+2048+memsys.BlockSize, false)
	gs := rec.byClass(memsys.ClassGS)
	if len(gs) == 0 {
		t.Fatal("GS did not classify IPs touching a dense region")
	}
	for _, c := range gs {
		if c.Addr <= region+2048 {
			t.Errorf("GS prefetched backwards on a positive stream: %#x", c.Addr)
		}
	}
}

func TestGSTentativeChaining(t *testing.T) {
	// After a region trains dense, an IP moving to a NEW region makes
	// the new region tentatively dense (control flow predicted data
	// flow, §IV-C), so GS prefetching starts without retraining.
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	ips := []uint64{0x400600}
	region := uint64(0x60_0000)
	touchDense(p, rec, region, ips, 0)
	rec.reset()
	// Very first access to the next region: tentative bit must let GS
	// fire immediately.
	demand(p, rec, 3000, ips[0], region+2048, false)
	if len(rec.byClass(memsys.ClassGS)) == 0 {
		t.Error("tentative chaining did not start GS in the new region")
	}
}

func TestGSDeclassifiesWhenNotDense(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400700
	region := uint64(0x70_0000)
	touchDense(p, rec, region, []uint64{ip}, 0)
	// Move the IP to a sparse far region twice; the second access's
	// region is not dense and not tentative (previous region of the
	// IP was not trained), so the IP must not stay GS forever.
	demand(p, rec, 4000, ip, region+1*memsys.PageSize*8, false)
	rec.reset()
	demand(p, rec, 4001, ip, region+2*memsys.PageSize*8, false)
	if len(rec.byClass(memsys.ClassGS)) != 0 {
		t.Error("GS classification stuck after the stream ended")
	}
}

func TestGSNegativeDirection(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400800
	region := uint64(0x80_0000)
	now := int64(1)
	// Touch the region densely in descending order.
	for l := 31; l >= 0; l-- {
		demand(p, rec, now, ip, region+uint64(l)*memsys.BlockSize, false)
		now++
	}
	rec.reset()
	// Next (previous in memory) region, descending entry point.
	next := region - 2048 + 31*memsys.BlockSize
	demand(p, rec, now, ip, next, false)
	gs := rec.byClass(memsys.ClassGS)
	if len(gs) == 0 {
		t.Fatal("GS did not fire on a descending stream")
	}
	for _, c := range gs {
		if c.Addr >= next {
			t.Errorf("descending GS prefetched forwards: %#x (trigger %#x)", c.Addr, next)
		}
	}
}

// --- priority and hysteresis --------------------------------------------

func TestPriorityGSOverCS(t *testing.T) {
	// An IP that is both GS and CS must prefetch as GS (paper: GS
	// wins ties for timeliness and global order).
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400900
	region := uint64(0x90_0000)
	// Unit stride makes the IP CS-eligible AND densely covers the
	// region, making it GS-eligible.
	now := int64(1)
	for l := 0; l < 32; l++ {
		demand(p, rec, now, ip, region+uint64(l)*memsys.BlockSize, false)
		now++
	}
	rec.reset()
	demand(p, rec, now, ip, region+2048, false)
	if len(rec.byClass(memsys.ClassGS)) == 0 {
		t.Error("GS did not win the GS/CS tie")
	}
	if len(rec.byClass(memsys.ClassCS)) != 0 {
		t.Error("CS prefetched despite GS priority")
	}
}

func TestPriorityReordering(t *testing.T) {
	cfg := DefaultL1Config()
	cfg.Priority = []memsys.PrefetchClass{
		memsys.ClassCS, memsys.ClassGS, memsys.ClassCPLX, memsys.ClassNL,
	}
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	const ip = 0x400a00
	region := uint64(0xa0_0000)
	now := int64(1)
	for l := 0; l < 32; l++ {
		demand(p, rec, now, ip, region+uint64(l)*memsys.BlockSize, false)
		now++
	}
	rec.reset()
	demand(p, rec, now, ip, region+2048, false)
	if len(rec.byClass(memsys.ClassCS)) == 0 {
		t.Error("reordered priority did not let CS win")
	}
}

func TestIPTableHysteresis(t *testing.T) {
	// Two IPs colliding on the same entry: the first conflict clears
	// the valid bit but keeps the incumbent; the second hands over.
	cfg := DefaultL1Config()
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	ipA := uint64(0x400b00)
	// Find another IP that hashes to the same table index but has a
	// different tag.
	idx := p.ipIndex(ipA)
	ipB := ipA
	for cand := ipA + 4; ; cand += 4 {
		if p.ipIndex(cand) == idx && ipTag(cand) != ipTag(ipA) {
			ipB = cand
			break
		}
	}
	base := uint64(0xb0_0000)
	for i := uint64(0); i < 4; i++ {
		demand(p, rec, int64(i), ipA, base+i*memsys.BlockSize, false)
	}
	if !p.ipTable[idx].valid {
		t.Fatal("incumbent not valid after training")
	}
	// First access by B: conflict → valid cleared, A's fields kept.
	demand(p, rec, 10, ipB, base+0x10000, false)
	if p.ipTable[idx].valid {
		t.Error("valid bit not cleared on first conflict")
	}
	if p.ipTable[idx].tag != ipTag(ipA) {
		t.Error("incumbent evicted on first conflict")
	}
	// Second access by B: entry handed over.
	demand(p, rec, 11, ipB, base+0x10000, false)
	if p.ipTable[idx].tag != ipTag(ipB) || !p.ipTable[idx].valid {
		t.Error("entry not handed to the new IP on second conflict")
	}
	// A comes back: its own access re-establishes hysteresis the same
	// way (valid cleared first).
	demand(p, rec, 12, ipA, base+4*memsys.BlockSize, false)
	if p.ipTable[idx].valid {
		t.Error("hysteresis asymmetric on the way back")
	}
}

// --- NL gate and throttling ----------------------------------------------

func TestTentativeNLGate(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	if !p.NLEnabled() {
		t.Fatal("NL must start enabled")
	}
	// Hammer misses: MPKC far above 50 → NL off at the next epoch.
	for i := 0; i < 3000; i++ {
		demand(p, rec, int64(i), uint64(0x400c00+i*64), uint64(0xc0_0000+i*8192), false)
	}
	p.Cycle(5000)
	if p.NLEnabled() {
		t.Error("NL stayed on at extreme miss rates")
	}
	// Quiet phase: NL back on.
	p.Cycle(20000)
	if !p.NLEnabled() {
		t.Error("NL did not re-enable after misses subsided")
	}
}

func TestNLIssuesForUnclassifiedIP(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400d00
	// Two random touches: no class trains, NL (on by default) fires.
	demand(p, rec, 0, ip, 0xd0_0000, false)
	rec.reset()
	demand(p, rec, 1, ip, 0xd0_0000+17*memsys.PageSize+5*memsys.BlockSize, false)
	nl := rec.byClass(memsys.ClassNL)
	if len(nl) != 1 {
		t.Fatalf("NL issued %d, want 1", len(nl))
	}
}

func TestThrottleDegreeDown(t *testing.T) {
	cfg := DefaultL1Config()
	p := NewL1IPCP(cfg)
	// Simulate a window of useless GS fills.
	for i := 0; i < throttleWindow; i++ {
		p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassGS})
	}
	if got := p.ClassDegree(memsys.ClassGS); got != cfg.DegreeGS-1 {
		t.Errorf("GS degree after useless window = %d, want %d", got, cfg.DegreeGS-1)
	}
	// Keep feeding useless windows: degree bottoms out at 1.
	for w := 0; w < 20; w++ {
		for i := 0; i < throttleWindow; i++ {
			p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassGS})
		}
	}
	if got := p.ClassDegree(memsys.ClassGS); got != 1 {
		t.Errorf("GS degree floor = %d, want 1", got)
	}
}

func TestThrottleDegreeRecovers(t *testing.T) {
	cfg := DefaultL1Config()
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	// Drive degree down...
	for w := 0; w < 10; w++ {
		for i := 0; i < throttleWindow; i++ {
			p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassCS})
		}
	}
	if p.ClassDegree(memsys.ClassCS) != 1 {
		t.Fatal("setup failed")
	}
	// ...then report high accuracy: every fill followed by a useful
	// hit.
	for w := 0; w < 10; w++ {
		for i := 0; i < throttleWindow; i++ {
			p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassCS})
			p.Operate(0, &prefetch.Access{
				Addr: 0xe0_0000, VAddr: 0xe0_0000, IP: 0x400e00,
				Type: memsys.Load, Hit: true,
				HitPrefetched: true, HitClass: memsys.ClassCS,
			}, rec)
		}
	}
	if got := p.ClassDegree(memsys.ClassCS); got != cfg.DegreeCS {
		t.Errorf("CS degree did not recover: %d, want %d", got, cfg.DegreeCS)
	}
}

// --- RR filter -----------------------------------------------------------

func TestRRFilterSuppressesDuplicates(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x400f00
	base := uint64(0xf0_0000)
	for i := uint64(0); i < 6; i++ {
		demand(p, rec, int64(i), ip, base+i*memsys.BlockSize, false)
	}
	// The same trained access repeated back-to-back must not re-issue
	// the identical candidates (they are in the RR filter).
	rec.reset()
	demand(p, rec, 10, ip, base+6*memsys.BlockSize, false)
	n1 := len(rec.cands)
	rec.reset()
	demand(p, rec, 11, ip, base+6*memsys.BlockSize, false)
	n2 := len(rec.cands)
	if n2 >= n1 && n1 > 0 {
		t.Errorf("RR filter did not suppress duplicates: first %d, repeat %d", n1, n2)
	}
}

func TestRRFilterUnit(t *testing.T) {
	f := newRRFilter()
	if f.hit(0x1000) {
		t.Error("empty filter hit")
	}
	f.insert(0x1000)
	if !f.hit(0x1000) {
		t.Error("inserted tag missed")
	}
	// FIFO capacity: 32 further inserts evict the first.
	for i := 1; i <= rrEntries; i++ {
		f.insert(memsys.Addr(0x1000 + i*memsys.BlockSize))
	}
	if f.hit(0x1000) {
		t.Error("tag survived past FIFO capacity")
	}
}

// TestRRFilterMatchesScan holds the O(1) presence-count probe to the
// reference it replaced — a scan of all 32 FIFO tags — over random
// insert/probe steps. Addresses come from a pool of 48 blocks, so the
// FIFO is always full of duplicates (the same tag in several entries,
// each evicted separately) and every step's answer is contested.
func TestRRFilterMatchesScan(t *testing.T) {
	scan := func(f *rrFilter, addr memsys.Addr) bool {
		tag := rrTag(addr)
		for _, x := range f.tags {
			if x == tag {
				return true
			}
		}
		return false
	}
	f := newRRFilter()
	rng := rand.New(rand.NewSource(7))
	var wantProbes, wantHits uint64
	for step := 0; step < 1_200_000; step++ {
		addr := memsys.Addr(0x7f00_0000 + rng.Intn(48)*memsys.BlockSize)
		if rng.Intn(3) == 0 {
			f.insert(addr)
			continue
		}
		want := scan(f, addr)
		wantProbes++
		if want {
			wantHits++
		}
		if got := f.hit(addr); got != want {
			t.Fatalf("step %d: hit(%#x) = %v, 32-entry scan says %v", step, addr, got, want)
		}
	}
	if probes, hits := f.stats(); probes != wantProbes || hits != wantHits {
		t.Errorf("stats = (%d, %d), want (%d, %d)", probes, hits, wantProbes, wantHits)
	}
	if wantHits == 0 || wantHits == wantProbes {
		t.Errorf("degenerate mix: %d hits of %d probes", wantHits, wantProbes)
	}
}

// --- page boundary property ------------------------------------------------

func TestNeverCrossesPageProperty(t *testing.T) {
	// Whatever access pattern IPCP sees, no candidate may leave the
	// triggering page (§IV).
	f := func(seed uint32, pattern []uint8) bool {
		p := NewL1IPCP(DefaultL1Config())
		rec := &recorder{}
		addr := uint64(seed)<<12 | 0x1_0000_0000
		ip := uint64(0x410000)
		var lastPage uint64
		for i, d := range pattern {
			demand(p, rec, int64(i), ip+uint64(d%4)*4, addr, false)
			lastPage = memsys.PageNumber(addr)
			for _, c := range rec.cands {
				_ = c
			}
			// All candidates so far must be in some previously
			// accessed page; specifically the current trigger's page.
			for _, c := range rec.cands {
				if memsys.PageNumber(c.Addr) != lastPage {
					// allow candidates from earlier triggers: track
					// instead that each candidate was issued in-page
					// at issue time — simplest: drain per step.
					return false
				}
			}
			rec.reset()
			addr += uint64(d%8) * memsys.BlockSize
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- metadata ---------------------------------------------------------------

func TestMetadataAttached(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x411000
	base := uint64(0x1_1000_0000)
	for i := uint64(0); i < 6; i++ {
		demand(p, rec, int64(i), ip, base+i*2*memsys.BlockSize, false)
	}
	cs := rec.byClass(memsys.ClassCS)
	if len(cs) == 0 {
		t.Fatal("no CS candidates")
	}
	m := memsys.DecodeMetadata(cs[len(cs)-1].Meta)
	if m.Class != memsys.ClassCS {
		t.Errorf("metadata class = %v, want CS", m.Class)
	}
	if m.Stride != 2 {
		t.Errorf("metadata stride = %d, want 2 (accuracy unmeasured ⇒ optimistic)", m.Stride)
	}
}

func TestMetadataDisabled(t *testing.T) {
	cfg := DefaultL1Config()
	cfg.EmitMetadata = false
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	const ip = 0x412000
	base := uint64(0x1_2000_0000)
	for i := uint64(0); i < 6; i++ {
		demand(p, rec, int64(i), ip, base+i*memsys.BlockSize, false)
	}
	for _, c := range rec.cands {
		if c.Meta != 0 {
			t.Fatal("metadata emitted despite EmitMetadata=false")
		}
	}
}

func TestMetadataStrideGatedByAccuracy(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	// Force low measured CS accuracy.
	for i := 0; i < throttleWindow; i++ {
		p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassCS})
	}
	const ip = 0x413000
	base := uint64(0x1_3000_0000)
	for i := uint64(0); i < 6; i++ {
		demand(p, rec, int64(i), ip, base+i*2*memsys.BlockSize, false)
	}
	cs := rec.byClass(memsys.ClassCS)
	if len(cs) == 0 {
		t.Fatal("no CS candidates")
	}
	m := memsys.DecodeMetadata(cs[0].Meta)
	if m.Stride != 0 {
		t.Errorf("stride metadata leaked despite low accuracy: %d", m.Stride)
	}
	if m.Class != memsys.ClassCS {
		t.Errorf("class metadata lost: %v", m.Class)
	}
}

// --- class isolation (Fig. 13a machinery) -----------------------------------

func TestClassEnableSwitches(t *testing.T) {
	cfg := DefaultL1Config()
	cfg.EnableGS = false
	cfg.EnableCPLX = false
	cfg.EnableNL = false
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	const ip = 0x414000
	region := uint64(0x1_4000_0000)
	now := int64(1)
	for l := 0; l < 32; l++ {
		demand(p, rec, now, ip, region+uint64(l)*memsys.BlockSize, false)
		now++
	}
	demand(p, rec, now, ip, region+2048, false)
	if len(rec.byClass(memsys.ClassGS)) != 0 {
		t.Error("GS issued while disabled")
	}
	if len(rec.byClass(memsys.ClassNL)) != 0 {
		t.Error("NL issued while disabled")
	}
	if len(rec.byClass(memsys.ClassCS)) == 0 {
		t.Error("CS-only config did not prefetch a unit-stride stream")
	}
}

// --- L2 IPCP ------------------------------------------------------------------

func TestL2DecodesMetadataAndPrefetches(t *testing.T) {
	p := NewL2IPCP(DefaultL2Config())
	rec := &recorder{}
	const ip = 0x415000
	meta := memsys.Metadata{Class: memsys.ClassCS, Stride: 2}.Encode()
	// L1 prefetch request arrives with metadata.
	p.Operate(0, &prefetch.Access{
		Addr: 0x2_0000_0000, IP: ip, Type: memsys.Prefetch, Meta: meta,
	}, rec)
	rec.reset()
	// Demand access from the same IP: deep CS prefetching, degree 4.
	p.Operate(1, &prefetch.Access{
		Addr: 0x2_0000_1000, IP: ip, Type: memsys.Load, Hit: false,
	}, rec)
	cs := rec.byClass(memsys.ClassCS)
	if len(cs) != p.cfg.DegreeCS {
		t.Fatalf("L2 CS issued %d, want degree %d", len(cs), p.cfg.DegreeCS)
	}
	for k, c := range cs {
		want := memsys.BlockNumber(0x2_0000_1000) + uint64(2*(k+1))
		if memsys.BlockNumber(c.Addr) != want {
			t.Errorf("L2 CS candidate %d at block %d, want %d", k, memsys.BlockNumber(c.Addr), want)
		}
	}
}

func TestL2NLOnMetadata(t *testing.T) {
	p := NewL2IPCP(DefaultL2Config())
	rec := &recorder{}
	meta := memsys.Metadata{Class: memsys.ClassNL, Stride: 1}.Encode()
	p.Operate(0, &prefetch.Access{
		Addr: 0x2_1000_0000, IP: 0x416000, Type: memsys.Prefetch, Meta: meta,
	}, rec)
	if len(rec.byClass(memsys.ClassNL)) == 0 {
		t.Error("L2 did not next-line on an NL-class prefetch arrival")
	}
}

func TestL2GSDirection(t *testing.T) {
	p := NewL2IPCP(DefaultL2Config())
	rec := &recorder{}
	const ip = 0x417000
	meta := memsys.Metadata{Class: memsys.ClassGS, Stride: -1}.Encode()
	p.Operate(0, &prefetch.Access{Addr: 0x2_2000_0000, IP: ip, Type: memsys.Prefetch, Meta: meta}, rec)
	rec.reset()
	trigger := memsys.Addr(0x2_2000_0000 + 16*memsys.BlockSize)
	p.Operate(1, &prefetch.Access{Addr: trigger, IP: ip, Type: memsys.Load}, rec)
	gs := rec.byClass(memsys.ClassGS)
	if len(gs) == 0 {
		t.Fatal("L2 GS issued nothing")
	}
	for _, c := range gs {
		if c.Addr >= trigger {
			t.Errorf("L2 GS ignored negative direction: %#x", c.Addr)
		}
	}
}

func TestL2NoCPLX(t *testing.T) {
	// The L2 table has no CPLX slot: CPLX-class metadata must not
	// cause CPLX prefetching at L2 (the class encodes as ClassNone on
	// the 2-bit wire).
	m := memsys.Metadata{Class: memsys.ClassCPLX, Stride: 3}
	dec := memsys.DecodeMetadata(m.Encode())
	if dec.Class == memsys.ClassCPLX {
		t.Fatal("the 9-bit metadata wire must not carry a CPLX class")
	}
}

func TestL2TentativeNLGate(t *testing.T) {
	p := NewL2IPCP(DefaultL2Config())
	rec := &recorder{}
	for i := 0; i < 2000; i++ {
		p.Operate(int64(i), &prefetch.Access{
			Addr: memsys.Addr(0x2_3000_0000 + i*memsys.PageSize),
			IP:   uint64(0x418000 + i*4), Type: memsys.Load, Hit: false,
		}, rec)
	}
	p.Cycle(5000)
	if p.NLEnabled() {
		t.Error("L2 NL stayed on at extreme miss rates")
	}
}

func TestL2RegistryLevels(t *testing.T) {
	l1, err := prefetch.New("ipcp", memsys.LevelL1D)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l1.(*L1IPCP); !ok {
		t.Errorf("ipcp at L1D resolved to %T", l1)
	}
	l2, err := prefetch.New("ipcp", memsys.LevelL2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l2.(*L2IPCP); !ok {
		t.Errorf("ipcp at L2 resolved to %T", l2)
	}
}

// --- storage (Table I) --------------------------------------------------------

func TestStorageMatchesTableI(t *testing.T) {
	s := ComputeStorage(DefaultL1Config(), DefaultL2Config())
	if s.L1Bits != 5800 {
		t.Errorf("L1 table bits = %d, want 5800", s.L1Bits)
	}
	if s.OthersBits != 113 {
		t.Errorf("others bits = %d, want 113", s.OthersBits)
	}
	if s.L2Bits != 1237 {
		t.Errorf("L2 bits = %d, want 1237", s.L2Bits)
	}
	if got := s.L1Bytes(); got != 740 {
		t.Errorf("L1 bytes = %d, want 740", got)
	}
	if got := s.L2Bytes(); got != 155 {
		t.Errorf("L2 bytes = %d, want 155", got)
	}
	if got := s.TotalBytes(); got != 895 {
		t.Errorf("total bytes = %d, want 895 (Table I)", got)
	}
}
