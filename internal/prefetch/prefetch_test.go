package prefetch

import (
	"testing"

	"ipcp/internal/memsys"
)

// recorder collects issued candidates.
type recorder struct {
	cands []Candidate
	// rejectAll simulates a full PQ.
	rejectAll bool
}

func (r *recorder) Issue(c Candidate) bool {
	if r.rejectAll {
		return false
	}
	r.cands = append(r.cands, c)
	return true
}

func (r *recorder) blocks() map[uint64]bool {
	m := map[uint64]bool{}
	for _, c := range r.cands {
		m[memsys.BlockNumber(c.Addr)] = true
	}
	return m
}

func (r *recorder) reset() { r.cands = r.cands[:0] }

// access drives one demand load through a prefetcher.
func access(p Prefetcher, rec *recorder, now int64, ip, vaddr uint64, hit bool) {
	p.Operate(now, &Access{
		Addr: vaddr, VAddr: vaddr, IP: ip,
		Type: memsys.Load, Hit: hit,
	}, rec)
}

func TestRegistryNames(t *testing.T) {
	want := []string{"nl", "nl-miss", "ipstride", "stream", "bop", "mlop",
		"spp", "vldp", "bingo", "bingo119", "sms", "spp-ppf-dspatch", "tskid"}
	for _, n := range want {
		p, err := New(n, memsys.LevelL1D)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		if p == nil {
			t.Errorf("New(%q) returned nil", n)
		}
	}
	if _, err := New("bogus", memsys.LevelL1D); err == nil {
		t.Error("unknown prefetcher accepted")
	}
	if p, _ := New("none", memsys.LevelL1D); p.Name() != "none" {
		t.Error("none prefetcher wrong")
	}
}

func TestNextLineBasics(t *testing.T) {
	p := NewNextLine()
	rec := &recorder{}
	access(p, rec, 0, 0x400, 0x10000, false)
	if len(rec.cands) != 1 {
		t.Fatalf("issued %d, want 1", len(rec.cands))
	}
	if rec.cands[0].Addr != 0x10040 {
		t.Errorf("candidate %#x, want 0x10040", rec.cands[0].Addr)
	}
	if rec.cands[0].Class != memsys.ClassNL {
		t.Errorf("class = %v", rec.cands[0].Class)
	}
	// Never across a page boundary.
	rec.reset()
	access(p, rec, 0, 0x400, 0x10fc0, false) // last line of page
	if len(rec.cands) != 0 {
		t.Errorf("next-line crossed page boundary: %#x", rec.cands[0].Addr)
	}
}

func TestNextLineMissOnly(t *testing.T) {
	p := &NextLine{Degree: 1, OnMissOnly: true}
	rec := &recorder{}
	access(p, rec, 0, 0x400, 0x10000, true)
	if len(rec.cands) != 0 {
		t.Error("miss-only NL triggered on a hit")
	}
	access(p, rec, 0, 0x400, 0x10000, false)
	if len(rec.cands) != 1 {
		t.Error("miss-only NL did not trigger on a miss")
	}
}

func TestIPStrideLearnsStride(t *testing.T) {
	p := NewIPStride()
	rec := &recorder{}
	const ip = 0x401000
	base := uint64(0x20000)
	stride := uint64(3 * memsys.BlockSize)
	// Training: a few accesses with constant stride.
	for i := uint64(0); i < 4; i++ {
		access(p, rec, int64(i), ip, base+i*stride, false)
	}
	rec.reset()
	access(p, rec, 10, ip, base+4*stride, false)
	if len(rec.cands) == 0 {
		t.Fatal("trained IP-stride issued nothing")
	}
	want := memsys.BlockNumber(base+4*stride) + 3
	if memsys.BlockNumber(rec.cands[0].Addr) != want {
		t.Errorf("first candidate block %d, want %d",
			memsys.BlockNumber(rec.cands[0].Addr), want)
	}
	if len(rec.cands) > p.Degree {
		t.Errorf("issued %d > degree %d", len(rec.cands), p.Degree)
	}
}

func TestIPStrideNoConfidenceOnAlternating(t *testing.T) {
	p := NewIPStride()
	rec := &recorder{}
	const ip = 0x402000
	// Alternating strides 1,2,1,2 never build confidence.
	addr := uint64(0x30000)
	deltas := []uint64{1, 2, 1, 2, 1, 2, 1, 2}
	for i, d := range deltas {
		access(p, rec, int64(i), ip, addr, false)
		addr += d * memsys.BlockSize
	}
	if len(rec.cands) != 0 {
		t.Errorf("IP-stride prefetched %d times on an alternating pattern", len(rec.cands))
	}
}

func TestIPStridePageBoundary(t *testing.T) {
	p := NewIPStride()
	rec := &recorder{}
	const ip = 0x403000
	base := uint64(0x40000)
	for i := uint64(0); i < 60; i++ {
		access(p, rec, int64(i), ip, base+i*memsys.BlockSize, false)
	}
	for _, c := range rec.cands {
		if memsys.PageNumber(c.Addr) != memsys.PageNumber(base) {
			t.Fatalf("prefetch crossed page: %#x", c.Addr)
		}
	}
}

func TestStreamDetectsAscending(t *testing.T) {
	p := NewStream()
	rec := &recorder{}
	base := uint64(0x50000)
	for i := uint64(0); i < 6; i++ {
		access(p, rec, 0, 0, base+i*memsys.BlockSize, false)
	}
	if len(rec.cands) == 0 {
		t.Fatal("stream prefetcher issued nothing on a sequential stream")
	}
	for _, c := range rec.cands {
		if c.Addr <= base {
			t.Errorf("ascending stream prefetched backwards: %#x", c.Addr)
		}
	}
}

func TestStreamDetectsDescending(t *testing.T) {
	p := NewStream()
	rec := &recorder{}
	base := uint64(0x60000) + 32*memsys.BlockSize
	for i := uint64(0); i < 6; i++ {
		access(p, rec, 0, 0, base-i*memsys.BlockSize, false)
	}
	if len(rec.cands) == 0 {
		t.Fatal("stream prefetcher issued nothing on a descending stream")
	}
	for _, c := range rec.cands {
		if c.Addr >= base {
			t.Errorf("descending stream prefetched forwards: %#x", c.Addr)
		}
	}
}

func TestBOPElectsDominantOffset(t *testing.T) {
	p := NewBOP()
	rec := &recorder{}
	// Feed a long stride-2 miss stream (fills echo into the RR table).
	addr := uint64(1 << 30)
	for i := 0; i < 3000; i++ {
		a := &Access{Addr: addr, VAddr: addr, IP: 0x400, Type: memsys.Load, Hit: false}
		p.Operate(0, a, rec)
		p.Fill(0, &FillEvent{Addr: addr, VAddr: addr})
		addr += 2 * memsys.BlockSize
		if addr%memsys.PageSize == 0 {
			addr += 0 // keep walking; page crossings are fine for BOP scoring
		}
	}
	// On a constant stride-2 stream every positive multiple of 2 is a
	// valid offset and they tie in score; BOP must elect one of them.
	if p.best <= 0 || p.best%2 != 0 {
		t.Errorf("elected offset %d, want a positive multiple of the stride 2", p.best)
	}
	if !p.bestOK {
		t.Error("prefetching disabled despite a clear pattern")
	}
}

func TestMLOPElectsOffsets(t *testing.T) {
	p := NewMLOP()
	rec := &recorder{}
	// Unit-stride stream: offset +1 must dominate.
	addr := uint64(2 << 30)
	for i := 0; i < 2000; i++ {
		access(p, rec, int64(i), 0x400, addr, false)
		addr += memsys.BlockSize
	}
	offs := p.Offsets()
	if len(offs) == 0 || offs[0] != 1 {
		t.Errorf("elected offsets %v, want +1 first", offs)
	}
	rec.reset()
	access(p, rec, 9999, 0x400, addr, false)
	if len(rec.cands) == 0 {
		t.Error("trained MLOP issued nothing")
	}
}

func TestSPPFollowsSignaturePath(t *testing.T) {
	p := NewSPP()
	rec := &recorder{}
	// Repeating complex pattern 1,2 within pages: SPP should learn it
	// and prefetch along the path.
	addr := uint64(3 << 30)
	deltas := []uint64{1, 2}
	for i := 0; i < 4000; i++ {
		access(p, rec, int64(i), 0x400, addr, false)
		addr += deltas[i%2] * memsys.BlockSize
	}
	if len(rec.cands) == 0 {
		t.Fatal("SPP issued nothing on a repeating delta pattern")
	}
	// Candidates must stay in page.
	for _, c := range rec.cands {
		if memsys.PageNumber(c.Addr) > memsys.PageNumber(addr)+1 {
			t.Fatalf("SPP escaped the page: %#x vs %#x", c.Addr, addr)
		}
	}
}

func TestSPPConfidenceDecaysOnNoise(t *testing.T) {
	p := NewSPP()
	rec := &recorder{}
	// Pure random offsets: SPP must stay quiet (low path confidence).
	addr := uint64(4 << 30)
	rng := uint64(12345)
	for i := 0; i < 3000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		off := (rng >> 33) % memsys.LinesPerPage
		a := addr&^memsys.Addr(memsys.PageSize-1) + memsys.Addr(off)*memsys.BlockSize
		access(p, rec, int64(i), 0x400, a, false)
		if i%64 == 0 {
			addr += memsys.PageSize
		}
	}
	issueRate := float64(len(rec.cands)) / 3000
	if issueRate > 0.5 {
		t.Errorf("SPP issue rate %.2f on random traffic; confidence gate broken", issueRate)
	}
}

func TestVLDPLearnsDeltaSequence(t *testing.T) {
	p := NewVLDP()
	rec := &recorder{}
	addr := uint64(5 << 30)
	deltas := []uint64{3, 3, 4} // the paper's CPLX example
	for i := 0; i < 3000; i++ {
		access(p, rec, int64(i), 0x400, addr, false)
		addr += deltas[i%3] * memsys.BlockSize
	}
	if len(rec.cands) == 0 {
		t.Fatal("VLDP issued nothing on a repeating delta sequence")
	}
}

func TestBingoRecallsFootprint(t *testing.T) {
	p := NewBingo(2048)
	rec := &recorder{}
	const ip = 0x400
	// Visit a fixed footprint in region 1, then trigger region 2 with
	// the same PC+offset: the footprint must be prefetched.
	region1 := uint64(6 << 30)
	lines := []int{0, 3, 5, 9, 12}
	for _, l := range lines {
		access(p, rec, 0, ip, region1+uint64(l)*memsys.BlockSize, false)
	}
	// New region triggers eviction+learning of region1 once region1
	// leaves the AT; force it by touching many regions.
	for r := 1; r <= bingoATSize+1; r++ {
		access(p, rec, 0, 0x999, region1+uint64(r)*0x800+0x7<<6, false)
	}
	rec.reset()
	region2 := region1 + 0x100000
	access(p, rec, 0, ip, region2, false) // same trigger offset 0
	got := rec.blocks()
	for _, l := range lines[1:] {
		want := memsys.BlockNumber(region2 + uint64(l)*memsys.BlockSize)
		if !got[want] {
			t.Errorf("footprint line %d not prefetched", l)
		}
	}
}

func TestSMSRecallsFootprint(t *testing.T) {
	p := NewSMS()
	rec := &recorder{}
	const ip = 0x440
	region1 := uint64(7 << 30)
	lines := []int{0, 2, 4}
	for _, l := range lines {
		access(p, rec, 0, ip, region1+uint64(l)*memsys.BlockSize, false)
	}
	for r := 1; r <= 33; r++ {
		access(p, rec, 0, 0x888, region1+uint64(r)*0x800+0x3<<6, false)
	}
	rec.reset()
	region2 := region1 + 0x200000
	access(p, rec, 0, ip, region2, false)
	got := rec.blocks()
	for _, l := range lines[1:] {
		if !got[memsys.BlockNumber(region2+uint64(l)*memsys.BlockSize)] {
			t.Errorf("SMS did not recall line %d", l)
		}
	}
}

func TestDSPatchPatterns(t *testing.T) {
	p := NewDSPatch()
	rec := &recorder{}
	const ip = 0x460
	// Two generations of the same page-footprint shape from one PC.
	for gen := 0; gen < 3; gen++ {
		page := uint64(8<<30) + uint64(gen)*memsys.PageSize
		for _, l := range []int{0, 1, 2, 3} {
			access(p, rec, 0, ip, page+uint64(l)*memsys.BlockSize, false)
		}
		// Touch other pages to evict from the active table.
		for r := 0; r < 33; r++ {
			access(p, rec, 0, 0x777, uint64(9<<30)+uint64(gen*33+r)*memsys.PageSize, false)
		}
	}
	rec.reset()
	page := uint64(8<<30) + 100*memsys.PageSize
	access(p, rec, 0, ip, page, false)
	if len(rec.cands) == 0 {
		t.Fatal("DSPatch predicted nothing for a learned PC")
	}
	got := rec.blocks()
	for _, l := range []int{1, 2, 3} {
		if !got[memsys.BlockNumber(page+uint64(l)*memsys.BlockSize)] {
			t.Errorf("DSPatch missing line %d", l)
		}
	}
}

func TestPPFFiltersAndTrains(t *testing.T) {
	inner := NewNextLine()
	p := NewPPF(inner)
	rec := &recorder{}
	// Drive accesses; nothing should crash, and the filter must pass
	// candidates through initially (weights near zero >= tAccept).
	access(p, rec, 0, 0x400, 0x1000_0000, false)
	if p.Accepted == 0 {
		t.Fatal("fresh PPF rejected everything")
	}
	// Hammer negative training for this candidate shape.
	for i := 0; i < 200; i++ {
		rec.reset()
		access(p, rec, int64(i), 0x400, 0x1000_0000+uint64(i)*memsys.PageSize, false)
		for _, c := range rec.cands {
			p.Fill(0, &FillEvent{
				Addr: c.Addr, VAddr: c.Addr,
				Evicted: c.Addr, EvictedUnusedPrefetch: true,
			})
		}
	}
	rec.reset()
	before := p.Rejected
	for i := 0; i < 50; i++ {
		access(p, rec, int64(1000+i), 0x400, 0x2000_0000+uint64(i)*memsys.PageSize, false)
	}
	if p.Rejected == before {
		t.Error("PPF never learned to reject a uniformly useless pattern")
	}
}

func TestPPFPositiveTrainingKeepsAccepting(t *testing.T) {
	p := NewPPF(NewNextLine())
	rec := &recorder{}
	addr := uint64(0x3000_0000)
	for i := 0; i < 300; i++ {
		// Issue, then report the prefetched block useful.
		access(p, rec, int64(i), 0x400, addr, false)
		p.Operate(int64(i), &Access{
			Addr: addr + memsys.BlockSize, VAddr: addr + memsys.BlockSize,
			IP: 0x400, Type: memsys.Load, Hit: true, HitPrefetched: true,
		}, rec)
		addr += memsys.BlockSize
	}
	if p.Rejected > p.Accepted/10 {
		t.Errorf("PPF rejecting a useful stream: accepted=%d rejected=%d",
			p.Accepted, p.Rejected)
	}
}

func TestTSKIDDelaysPrefetches(t *testing.T) {
	p := NewTSKID()
	rec := &recorder{}
	const ip = 0x480
	base := uint64(10 << 30)
	// Slow cadence: one access every 500 cycles; stride 1.
	var now int64
	for i := uint64(0); i < 6; i++ {
		access(p, rec, now, ip, base+i*memsys.BlockSize, false)
		now += 500
	}
	// Some candidates must have been deferred rather than all issued.
	if len(p.delayed) == 0 && len(rec.cands) == 0 {
		t.Fatal("TSKID neither issued nor scheduled prefetches")
	}
	// Advance time: the delayed ones release and flush on next
	// Operate.
	p.Cycle(now + 10000)
	rec.reset()
	access(p, rec, now+10001, ip, base+6*memsys.BlockSize, false)
	if len(rec.cands) == 0 {
		t.Error("released prefetches never flushed")
	}
}

func TestCompositeFansOut(t *testing.T) {
	c := NewComposite(NewNextLine(), NewIPStride())
	if c.Name() != "nl+ipstride" {
		t.Errorf("composite name = %q", c.Name())
	}
	rec := &recorder{}
	access(c, rec, 0, 0x400, 0x11000, false)
	if len(rec.cands) == 0 {
		t.Error("composite issued nothing")
	}
	c.Fill(0, &FillEvent{Addr: 0x11000})
	c.Cycle(1)
}

func TestAllPrefetchersStayInPage(t *testing.T) {
	// Property: no baseline ever issues a candidate outside the page
	// of its trigger when fed in-page patterns. (BOP may elect
	// negative offsets but still respects the page check.)
	for _, name := range []string{"nl", "ipstride", "stream", "spp", "vldp", "mlop"} {
		p, err := New(name, memsys.LevelL1D)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		base := uint64(12 << 30)
		for i := uint64(0); i < 200; i++ {
			a := base + (i%64)*memsys.BlockSize
			p.Operate(0, &Access{Addr: a, VAddr: a, IP: 0x500, Type: memsys.Load}, rec)
		}
		for _, c := range rec.cands {
			if memsys.PageNumber(c.Addr) != memsys.PageNumber(base) {
				t.Errorf("%s crossed the page: %#x", name, c.Addr)
			}
		}
	}
}

func TestPrefetchersIgnoreNonDemand(t *testing.T) {
	for _, name := range []string{"nl", "ipstride", "stream", "bop", "mlop", "spp", "vldp", "bingo", "sms", "spp-ppf-dspatch"} {
		p, _ := New(name, memsys.LevelL1D)
		rec := &recorder{}
		p.Operate(0, &Access{Addr: 0x7000, VAddr: 0x7000, IP: 1, Type: memsys.Writeback}, rec)
		if len(rec.cands) != 0 {
			t.Errorf("%s triggered on a writeback", name)
		}
	}
}

func TestThrottledNLGoesQuietWhenInaccurate(t *testing.T) {
	p := NewThrottledNL()
	rec := &recorder{}
	if !p.Enabled() {
		t.Fatal("must start enabled")
	}
	// A window of useless fills turns it off.
	for i := 0; i < tnlWindow; i++ {
		p.Fill(0, &FillEvent{Prefetch: true})
	}
	if p.Enabled() {
		t.Fatal("did not throttle at 0 accuracy")
	}
	// While off, only the sparse probe issues.
	issued := 0
	for i := 0; i < tnlProbeEvery*4; i++ {
		before := len(rec.cands)
		access(p, rec, int64(i), 0x400, uint64(0x9000_0000+i*4096), false)
		if len(rec.cands) > before {
			issued++
		}
	}
	if issued == 0 || issued > 6 {
		t.Errorf("probe rate while off = %d of %d misses", issued, tnlProbeEvery*4)
	}
	// A window of useful outcomes re-enables it.
	for i := 0; i < tnlWindow; i++ {
		p.Operate(0, &Access{Addr: 0x9100_0000, VAddr: 0x9100_0000,
			Type: memsys.Load, Hit: true, HitPrefetched: true}, rec)
		p.Fill(0, &FillEvent{Prefetch: true})
	}
	if !p.Enabled() {
		t.Error("did not re-enable after a useful window")
	}
}

func TestBingoPacingDrainsPending(t *testing.T) {
	p := NewBingo(2048)
	rec := &recorder{rejectAll: true}
	// Teach a full-region footprint under one PC, trigger with a full
	// queue: candidates park in pending.
	const ip = 0x777
	region1 := uint64(30 << 30)
	for l := 0; l < 32; l++ {
		access(p, rec, 0, ip, region1+uint64(l)*memsys.BlockSize, false)
	}
	for r := 1; r <= bingoATSize+1; r++ {
		access(p, rec, 0, 0x888, region1+uint64(r)*0x800+0x100, false)
	}
	region2 := region1 + 0x200000
	access(p, rec, 0, ip, region2, false)
	if len(p.pending) == 0 {
		t.Fatal("nothing parked while the queue was full")
	}
	// With the queue open, subsequent accesses drain the backlog.
	rec2 := &recorder{}
	for i := 0; i < 20 && len(p.pending) > 0; i++ {
		access(p, rec2, int64(i), 0x999, region1+uint64(i)*0x800+0x40, false)
	}
	if len(rec2.cands) == 0 {
		t.Error("pending footprint candidates never drained")
	}
}
