package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

func TestIPIndexSpreadsRegularSpacing(t *testing.T) {
	// Compiler-emitted load IPs are often spaced at a fixed power of
	// two; the hashed index must still use most of the table.
	p := NewL1IPCP(DefaultL1Config())
	for _, spacing := range []uint64{4, 8, 16} {
		seen := map[uint64]bool{}
		for i := uint64(0); i < 64; i++ {
			seen[p.ipIndex(0x400000+i*spacing)] = true
		}
		if len(seen) < 48 {
			t.Errorf("spacing %d: only %d/64 distinct indices", spacing, len(seen))
		}
	}
}

func TestGSLowAccuracyFallsThroughToCS(t *testing.T) {
	// When GS accuracy sits below the low watermark, the bouquet also
	// explores CS for the same access (§V coordinated throttling).
	cfg := DefaultL1Config()
	cfg.UseRRFilter = false // observe raw candidates
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	// Report a window of useless GS fills: accuracy 0 < 0.40.
	for i := 0; i < throttleWindow; i++ {
		p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassGS})
	}
	if p.ClassAccuracy(memsys.ClassGS) != 0 {
		t.Fatal("setup failed")
	}
	// Two stride-2 IPs interleave to make the region dense, so each is
	// both GS (dense region) and CS (stride 2). CS's lattice reaches
	// past GS's throttled next-k window, so the fall-through candidate
	// is observable despite the RR filter.
	ipA, ipB := uint64(0x420000), uint64(0x420040)
	region := uint64(0x2_0000_0000)
	now := int64(1)
	for l := 0; l < 32; l += 2 {
		demand(p, rec, now, ipA, region+uint64(l)*memsys.BlockSize, false)
		demand(p, rec, now+1, ipB, region+uint64(l+1)*memsys.BlockSize, false)
		now += 2
	}
	rec.reset()
	demand(p, rec, now, ipA, region+2048, false)
	if len(rec.byClass(memsys.ClassGS)) == 0 {
		t.Fatal("GS did not fire")
	}
	if len(rec.byClass(memsys.ClassCS)) == 0 {
		t.Error("low-accuracy GS did not fall through to CS")
	}
}

func TestRSTEvictsLRU(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x421000
	base := uint64(0x2_1000_0000)
	// Touch 9 distinct regions; the RST holds 8 — the first must be
	// evicted.
	for r := 0; r < 9; r++ {
		demand(p, rec, int64(r), ip, base+uint64(r)*2048, false)
	}
	first, _ := p.regionOf(memsys.Addr(base))
	if p.findRST(first) != nil {
		t.Error("LRU region survived 9 allocations in an 8-entry RST")
	}
	last, _ := p.regionOf(memsys.Addr(base + 8*2048))
	if p.findRST(last) == nil {
		t.Error("most recent region missing from RST")
	}
}

func TestDebugEntriesExposesState(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	const ip = 0x422000
	for i := uint64(0); i < 5; i++ {
		demand(p, rec, int64(i), ip, 0x2_2000_0000+i*2*memsys.BlockSize, false)
	}
	found := false
	p.DebugEntries(func(idx int, tag uint64, stride int8, conf uint8, stream bool, sig uint16) {
		if stride == 2 && conf >= 2 {
			found = true
		}
	})
	if !found {
		t.Error("trained entry not visible via DebugEntries")
	}
}

func TestL2TableConflictReplaces(t *testing.T) {
	p := NewL2IPCP(DefaultL2Config())
	rec := &recorder{}
	n := uint64(64)
	ipA := uint64(0x430000)
	ipB := ipA + n*4*8 // same index, different tag
	metaA := memsys.Metadata{Class: memsys.ClassCS, Stride: 2}.Encode()
	metaB := memsys.Metadata{Class: memsys.ClassGS, Stride: 1}.Encode()
	p.Operate(0, &prefetch.Access{Addr: 0x3_0000_0000, IP: ipA, Type: memsys.Prefetch, Meta: metaA}, rec)
	p.Operate(1, &prefetch.Access{Addr: 0x3_0001_0000, IP: ipB, Type: memsys.Prefetch, Meta: metaB}, rec)
	rec.reset()
	// A demand from B must see B's class (GS), not A's.
	p.Operate(2, &prefetch.Access{Addr: 0x3_0002_0000, IP: ipB, Type: memsys.Load}, rec)
	if len(rec.byClass(memsys.ClassGS)) == 0 {
		t.Error("L2 entry not replaced on metadata conflict")
	}
}

func TestThrottleWindowResets(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	// One fill short of the window: no measurement yet.
	for i := 0; i < throttleWindow-1; i++ {
		p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassCS})
	}
	if p.classes[memsys.ClassCS].measured {
		t.Fatal("measured before the window filled")
	}
	p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassCS})
	st := p.classes[memsys.ClassCS]
	if !st.measured {
		t.Fatal("window did not trigger measurement")
	}
	if st.fills != 0 || st.useful != 0 {
		t.Error("window counters not reset")
	}
}

func TestNonIPCPFillsIgnored(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	// Demand fills and class-less prefetch fills must not disturb the
	// throttle windows.
	p.Fill(0, &prefetch.FillEvent{Prefetch: false, Class: memsys.ClassCS})
	p.Fill(0, &prefetch.FillEvent{Prefetch: true, Class: memsys.ClassNone})
	for cls := 0; cls < memsys.NumClasses; cls++ {
		if p.classes[cls].fills != 0 {
			t.Errorf("class %d window counted a foreign fill", cls)
		}
	}
}

func TestIPCPIgnoresCodeReads(t *testing.T) {
	p := NewL1IPCP(DefaultL1Config())
	rec := &recorder{}
	p.Operate(0, &prefetch.Access{
		Addr: 0x400000, VAddr: 0x400000, IP: 0x400000, Type: memsys.CodeRead,
	}, rec)
	if len(rec.cands) != 0 {
		t.Error("IPCP reacted to a code read")
	}
}

func TestGSDegreeAggressive(t *testing.T) {
	// The GS class issues with the paper's aggressive degree 6 when
	// untouched by throttling. The RR filter is disabled here so
	// candidates already issued during training don't hide the degree.
	cfg := DefaultL1Config()
	cfg.UseRRFilter = false
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	const ip = 0x423000
	region := uint64(0x2_3000_0000)
	now := int64(1)
	for l := 0; l < 32; l++ {
		demand(p, rec, now, ip, region+uint64(l)*memsys.BlockSize, false)
		now++
	}
	rec.reset()
	// Trigger in the (tentatively dense) next region, far from the
	// page end so all 6 candidates fit.
	demand(p, rec, now, ip, region+2048, false)
	if got := len(rec.byClass(memsys.ClassGS)); got != p.cfg.DegreeGS {
		t.Errorf("GS issued %d, want degree %d", got, p.cfg.DegreeGS)
	}
}

// TestL1ConfigIsData: the configuration is its own wire form — it
// validates, round-trips through JSON exactly, decodes on top of the
// paper's defaults, and spells the priority order by class name.
func TestL1ConfigIsData(t *testing.T) {
	def := DefaultL1Config()
	if err := def.Validate(); err != nil {
		t.Fatalf("the paper's configuration does not validate: %v", err)
	}
	b, err := json.Marshal(def)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"priority":["GS","CS","CPLX","NL"]`) {
		t.Errorf("priority is not spelled by class name: %s", b)
	}
	var back, sparse L1Config
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, def) {
		t.Errorf("round trip = %+v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"enable_gs":false,"degree_cplx":2}`), &sparse); err != nil {
		t.Fatal(err)
	}
	want := def
	want.EnableGS, want.DegreeCPLX = false, 2
	if !reflect.DeepEqual(sparse, want) || sparse.Validate() != nil {
		t.Errorf("sparse variant = %+v (%v)", sparse, sparse.Validate())
	}
	// A field L1Config lacks decodes, is refused, and re-encodes as
	// written.
	const unknown = `{"degree_gs":4,"no_such_knob":1}`
	var stale L1Config
	if err := json.Unmarshal([]byte(unknown), &stale); err != nil {
		t.Fatalf("an unknown field does not decode: %v", err)
	}
	if stale.Validate() == nil {
		t.Error("a configuration naming an unknown field validates")
	}
	if b, err := json.Marshal(stale); err != nil || string(b) != unknown {
		t.Errorf("re-encoded as %s (%v), want %s", b, err, unknown)
	}
	if err := json.Unmarshal([]byte(`{"priority":["GS","CS","CPLX","??"]}`), &sparse); err == nil {
		t.Error("an unknown class name decoded")
	}
}
