package repl

import "fmt"

// Snapshot/restore support. Every policy's state is pure data except
// drrip's BRRIP coin, an RNG, which is restored by replaying its
// recorded draw count against the fixed seed — math/rand does not expose its internals, and the draw sequence
// is a pure function of (seed, count).

// State is a tagged union capturing one policy instance. Exactly the
// field matching Policy is set; the rest stay nil so the struct encodes
// compactly under encoding/gob.
type State struct {
	Policy  string
	LRU     *LRUState
	SRRIP   *SRRIPState
	DRRIP   *DRRIPState
	SHiP    *SHiPState
	Hawkeye *HawkeyeState
	MPPPB   *MPPPBState
}

// LRUState captures the true-LRU stamps and clock.
type LRUState struct {
	Stamp []uint64
	Tick  uint64
}

// SRRIPState captures the RRPV array.
type SRRIPState struct {
	RRPV []uint8
}

// DRRIPState captures the dueling state on top of SRRIP. Leader-set
// assignment is deterministic from geometry and is not captured.
type DRRIPState struct {
	RRPV  []uint8
	PSel  int
	Draws uint64
}

// SHiPState captures the signature tables on top of SRRIP.
type SHiPState struct {
	RRPV  []uint8
	SHCT  []uint8
	Sig   []uint16
	Reref []bool
}

// HawkeyeState captures the RRPVs, predictor and OPTgen samplers.
type HawkeyeState struct {
	RRPV      []uint8
	PCOf      []uint64
	UsedBit   []bool
	Predictor []int8
	Samplers  map[int]OptSamplerState
}

// OptSamplerState is one sampled set's OPTgen bookkeeping.
type OptSamplerState struct {
	Entries map[uint64]OptEntryState
	Occ     []uint8
	Clock   int
}

// OptEntryState is one tracked block in an OPTgen sampler.
type OptEntryState struct {
	LastTime int
	PC       uint64
}

// MPPPBState captures the perceptron tables and per-line features.
type MPPPBState struct {
	RRPV   []uint8
	Feats  [][mpppbFeatures]uint16
	Used   []bool
	Tables [mpppbFeatures][]int8
}

// Save captures p's complete replacement state.
func Save(p Policy) (State, error) {
	switch v := p.(type) {
	case *lru:
		return State{Policy: "lru", LRU: &LRUState{
			Stamp: append([]uint64(nil), v.stamp...), Tick: v.tick}}, nil
	case *drrip:
		return State{Policy: "drrip", DRRIP: &DRRIPState{
			RRPV: append([]uint8(nil), v.rrpv...), PSel: v.psel, Draws: v.draws}}, nil
	case *ship:
		return State{Policy: "ship", SHiP: &SHiPState{
			RRPV:  append([]uint8(nil), v.rrpv...),
			SHCT:  append([]uint8(nil), v.shct...),
			Sig:   append([]uint16(nil), v.sig...),
			Reref: append([]bool(nil), v.reref...)}}, nil
	case *srrip:
		return State{Policy: "srrip", SRRIP: &SRRIPState{
			RRPV: append([]uint8(nil), v.rrpv...)}}, nil
	case *hawkeye:
		hs := &HawkeyeState{
			RRPV:      append([]uint8(nil), v.rrpv...),
			PCOf:      append([]uint64(nil), v.pcOf...),
			UsedBit:   append([]bool(nil), v.usedBit...),
			Predictor: append([]int8(nil), v.predictor...),
			Samplers:  make(map[int]OptSamplerState, len(v.samplers)),
		}
		for set, s := range v.samplers {
			ss := OptSamplerState{
				Entries: make(map[uint64]OptEntryState, len(s.entries)),
				Occ:     append([]uint8(nil), s.occ[:]...),
				Clock:   s.clock,
			}
			for b, e := range s.entries {
				ss.Entries[b] = OptEntryState{LastTime: e.lastTime, PC: e.pc}
			}
			hs.Samplers[set] = ss
		}
		return State{Policy: "hawkeye", Hawkeye: hs}, nil
	case *mpppb:
		ms := &MPPPBState{
			RRPV:  append([]uint8(nil), v.rrpv...),
			Feats: append([][mpppbFeatures]uint16(nil), v.feats...),
			Used:  append([]bool(nil), v.used...),
		}
		for f := range v.tables {
			ms.Tables[f] = append([]int8(nil), v.tables[f]...)
		}
		return State{Policy: "mpppb", MPPPB: ms}, nil
	default:
		return State{}, fmt.Errorf("repl: policy %q does not support snapshots", p.Name())
	}
}

// Restore overwrites p (freshly constructed with the same geometry)
// with the captured state. The policy kind and array geometry must
// match the capture.
func Restore(p Policy, s State) error {
	if p.Name() != s.Policy {
		return fmt.Errorf("repl: restoring %q state into %q policy", s.Policy, p.Name())
	}
	switch v := p.(type) {
	case *lru:
		if s.LRU == nil || len(s.LRU.Stamp) != len(v.stamp) {
			return fmt.Errorf("repl: lru state geometry mismatch")
		}
		copy(v.stamp, s.LRU.Stamp)
		v.tick = s.LRU.Tick
	case *drrip:
		if s.DRRIP == nil || len(s.DRRIP.RRPV) != len(v.rrpv) {
			return fmt.Errorf("repl: drrip state geometry mismatch")
		}
		copy(v.rrpv, s.DRRIP.RRPV)
		v.psel = s.DRRIP.PSel
		for v.draws < s.DRRIP.Draws {
			v.draws++
			v.rng.Intn(32)
		}
	case *ship:
		if s.SHiP == nil || len(s.SHiP.RRPV) != len(v.rrpv) || len(s.SHiP.SHCT) != len(v.shct) {
			return fmt.Errorf("repl: ship state geometry mismatch")
		}
		copy(v.rrpv, s.SHiP.RRPV)
		copy(v.shct, s.SHiP.SHCT)
		copy(v.sig, s.SHiP.Sig)
		copy(v.reref, s.SHiP.Reref)
	case *srrip:
		if s.SRRIP == nil || len(s.SRRIP.RRPV) != len(v.rrpv) {
			return fmt.Errorf("repl: srrip state geometry mismatch")
		}
		copy(v.rrpv, s.SRRIP.RRPV)
	case *hawkeye:
		hs := s.Hawkeye
		if hs == nil || len(hs.RRPV) != len(v.rrpv) {
			return fmt.Errorf("repl: hawkeye state geometry mismatch")
		}
		copy(v.rrpv, hs.RRPV)
		copy(v.pcOf, hs.PCOf)
		copy(v.usedBit, hs.UsedBit)
		copy(v.predictor, hs.Predictor)
		v.samplers = make(map[int]*optSampler, len(hs.Samplers))
		for set, ss := range hs.Samplers {
			if len(ss.Occ) != optHistory {
				return fmt.Errorf("repl: hawkeye sampler geometry mismatch")
			}
			sm := &optSampler{ways: v.ways, entries: make(map[uint64]optEntry, len(ss.Entries)), clock: ss.Clock}
			copy(sm.occ[:], ss.Occ)
			for b, e := range ss.Entries {
				sm.entries[b] = optEntry{lastTime: e.LastTime, pc: e.PC}
			}
			v.samplers[set] = sm
		}
	case *mpppb:
		ms := s.MPPPB
		if ms == nil || len(ms.RRPV) != len(v.rrpv) {
			return fmt.Errorf("repl: mpppb state geometry mismatch")
		}
		copy(v.rrpv, ms.RRPV)
		copy(v.feats, ms.Feats)
		copy(v.used, ms.Used)
		for f := range v.tables {
			if len(ms.Tables[f]) != len(v.tables[f]) {
				return fmt.Errorf("repl: mpppb table geometry mismatch")
			}
			copy(v.tables[f], ms.Tables[f])
		}
	default:
		return fmt.Errorf("repl: policy %q does not support snapshots", p.Name())
	}
	return nil
}
