package core

import (
	"testing"

	"ipcp/internal/memsys"
)

func TestTemporalTableLearnsSuccessor(t *testing.T) {
	tt := NewTemporalTable(256)
	// Repeating miss sequence A -> B -> C.
	seq := []uint64{100, 237, 512}
	for round := 0; round < 4; round++ {
		for _, b := range seq {
			tt.RecordMiss(b)
		}
	}
	if got := tt.RecordMiss(100); got != 237 {
		t.Errorf("successor of 100 = %d, want 237", got)
	}
	if got := tt.RecordMiss(237); got != 512 {
		t.Errorf("successor of 237 = %d, want 512", got)
	}
}

func TestTemporalTableConfidenceGate(t *testing.T) {
	tt := NewTemporalTable(256)
	// A single observation must not reach the prediction threshold.
	tt.RecordMiss(7)
	tt.RecordMiss(11)
	if got := tt.RecordMiss(7); got != 0 {
		t.Errorf("one-shot correlation predicted %d; confidence gate broken", got)
	}
}

func TestTemporalTableRelearns(t *testing.T) {
	tt := NewTemporalTable(256)
	for i := 0; i < 6; i++ {
		tt.RecordMiss(1)
		tt.RecordMiss(2)
	}
	if tt.RecordMiss(1) != 2 {
		t.Fatal("did not learn 1->2")
	}
	// Pattern changes to 1 -> 3.
	for i := 0; i < 10; i++ {
		tt.RecordMiss(1)
		tt.RecordMiss(3)
	}
	if got := tt.RecordMiss(1); got != 3 {
		t.Errorf("after relearning, successor of 1 = %d, want 3", got)
	}
}

func TestTemporalTableSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two size accepted")
		}
	}()
	NewTemporalTable(100)
}

func TestIPCPTemporalExtensionCoversIrregularRepeats(t *testing.T) {
	// A repeating irregular miss sequence that no spatial class can
	// learn: with the temporal extension enabled, IPCP must start
	// prefetching it.
	cfg := DefaultL1Config()
	cfg.TemporalEntries = 1024
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	// A repeating sequence of 40 far-apart blocks: long enough that the
	// 32-entry RR filter ages each block out before its successor is
	// predicted again, and irregular enough that no spatial class can
	// learn it.
	var seq []uint64
	x := uint64(0x5_0000_0000)
	for i := 0; i < 40; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		seq = append(seq, 0x5_0000_0000+(x%(1<<20))<<12)
	}
	const ip = 0x450000
	now := int64(0)
	for round := 0; round < 8; round++ {
		for _, a := range seq {
			demand(p, rec, now, ip, a, false)
			now++
		}
	}
	if p.Issued[memsys.ClassNone] == 0 {
		t.Error("temporal extension issued nothing on a repeating miss sequence")
	}
	// The candidates must be learned successors from the sequence.
	inSeq := map[uint64]bool{}
	for _, a := range seq {
		inSeq[memsys.BlockNumber(a)] = true
	}
	found := false
	for _, c := range rec.cands {
		if c.Class == memsys.ClassNone && inSeq[memsys.BlockNumber(c.Addr)] {
			found = true
		}
	}
	if !found {
		t.Error("no temporal candidate matched a sequence block")
	}
}

func TestCPLXDistanceSkipsNearCandidates(t *testing.T) {
	cfg := DefaultL1Config()
	cfg.CPLXDistance = 2
	cfg.UseRRFilter = false
	p := NewL1IPCP(cfg)
	rec := &recorder{}
	const ip = 0x460000
	addr := uint64(0x6_0000_0000)
	deltas := []uint64{1, 2}
	for i := 0; i < 50; i++ { // ends mid-page so distance-shifted candidates fit
		demand(p, rec, int64(i), ip, addr, false)
		addr += deltas[i%2] * memsys.BlockSize
	}
	rec.reset()
	demand(p, rec, 100, ip, addr, false)
	cplx := rec.byClass(memsys.ClassCPLX)
	if len(cplx) == 0 {
		t.Fatal("no CPLX candidates")
	}
	// With distance 2, the nearest candidate must be at least 3 pattern
	// steps ahead (the first two were skipped).
	minDelta := int64(1 << 30)
	for _, c := range cplx {
		d := int64(memsys.BlockNumber(c.Addr)) - int64(memsys.BlockNumber(addr))
		if d < minDelta {
			minDelta = d
		}
	}
	if minDelta < 4 { // skipping 1,2 puts the first issue at ≥ +4 blocks
		t.Errorf("nearest CPLX candidate at +%d blocks; distance not applied", minDelta)
	}
}

func TestNewTemporalTablePanicsOnBadSize(t *testing.T) {
	cases := []struct {
		name    string
		entries int
		panics  bool
	}{
		{"zero", 0, true},
		{"negative", -1, true},
		{"non-power-of-two", 1000, true},
		{"power of two", 1024, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if tc.panics && r == nil {
					t.Errorf("NewTemporalTable(%d) did not panic", tc.entries)
				}
				if !tc.panics && r != nil {
					t.Errorf("NewTemporalTable(%d) panicked: %v", tc.entries, r)
				}
			}()
			NewTemporalTable(tc.entries)
		})
	}
}
