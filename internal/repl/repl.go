// Package repl implements cache replacement policies: true LRU, SRRIP,
// DRRIP (set-dueling SRRIP/BRRIP) and a SHiP-lite signature-based
// policy. The paper's sensitivity study (§VI-C) sweeps the LLC policy;
// the L1 and L2 use LRU as in ChampSim's DPC-3 configuration.
package repl

import (
	"fmt"
	"math/rand"

	"ipcp/internal/memsys"
)

// Policy decides victims within one cache. The cache calls Fill when a
// block is installed, Hit on every demand or prefetch hit, and Victim
// when a set is full and a way must be freed. Victim must return a way
// in [0, ways).
type Policy interface {
	Name() string
	Hit(set, way int, r *memsys.Request)
	Fill(set, way int, r *memsys.Request)
	Victim(set int, r *memsys.Request) int
}

// Factory constructs a policy for a cache with the given geometry.
type Factory func(sets, ways int) Policy

// factories is the registry of known policies.
var factories = map[string]Factory{
	"lru":   NewLRU,
	"srrip": NewSRRIP,
	"drrip": NewDRRIP,
	"ship":  NewSHiP,
	// "hawkeye" registers itself from hawkeye.go.
}

// New returns a policy by name, or an error listing the known names.
func New(name string, sets, ways int) (Policy, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("repl: unknown policy %q (known: %v)", name, Names())
	}
	return f(sets, ways), nil
}

// Names returns the registered policy names.
func Names() []string {
	return []string{"lru", "srrip", "drrip", "ship", "hawkeye", "mpppb"}
}

// --- LRU -------------------------------------------------------------

type lru struct {
	ways  int
	stamp []uint64
	tick  uint64
}

// stampArrays recycles LRU stamp arrays — one uint64 per line, the
// second-largest allocation of a system build — between policies.
var stampArrays memsys.ArrayPool[uint64]

// NewLRU returns a true-LRU policy.
func NewLRU(sets, ways int) Policy {
	return &lru{ways: ways, stamp: stampArrays.Get(sets * ways)}
}

// Release hands p's per-line array back to the free list its
// constructor draws from (LRU's stamps; the other policies' arrays are
// a quarter of the size or rarely built, and are left to the garbage
// collector). p must never be used again, and the caller must be the
// only goroutine that could still touch it.
func Release(p Policy) {
	if l, ok := p.(*lru); ok {
		stampArrays.Put(l.stamp)
		l.stamp = nil
	}
}

func (p *lru) Name() string { return "lru" }

func (p *lru) Hit(set, way int, _ *memsys.Request) {
	p.tick++
	p.stamp[set*p.ways+way] = p.tick
}

func (p *lru) Fill(set, way int, _ *memsys.Request) {
	p.tick++
	p.stamp[set*p.ways+way] = p.tick
}

func (p *lru) Victim(set int, _ *memsys.Request) int {
	base := set * p.ways
	victim, best := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < best {
			victim, best = w, s
		}
	}
	return victim
}

// --- SRRIP -----------------------------------------------------------

const rrpvMax = 3 // 2-bit RRPV

type srrip struct {
	ways int
	rrpv []uint8
	// fillRRPV lets DRRIP reuse this implementation with a BRRIP fill
	// policy. nil means "always long re-reference" (classic SRRIP).
	fillRRPV func(set int) uint8
}

// NewSRRIP returns a 2-bit SRRIP policy (fill at RRPV=2, promote to 0
// on hit).
func NewSRRIP(sets, ways int) Policy {
	p := &srrip{ways: ways, rrpv: make([]uint8, sets*ways)}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	return p
}

func (p *srrip) Name() string { return "srrip" }

func (p *srrip) Hit(set, way int, _ *memsys.Request) {
	p.rrpv[set*p.ways+way] = 0
}

func (p *srrip) Fill(set, way int, _ *memsys.Request) {
	v := uint8(rrpvMax - 1)
	if p.fillRRPV != nil {
		v = p.fillRRPV(set)
	}
	p.rrpv[set*p.ways+way] = v
}

func (p *srrip) Victim(set int, _ *memsys.Request) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// --- DRRIP -----------------------------------------------------------

type drrip struct {
	*srrip
	sets    int
	psel    int
	rng     *rand.Rand
	draws   uint64 // BRRIP coin flips, for replay-based snapshot restore
	leaders []int8 // per set: +1 SRRIP leader, -1 BRRIP leader, 0 follower
}

// NewDRRIP returns a set-dueling DRRIP policy with 32 leader sets per
// kind and a 10-bit PSEL counter.
func NewDRRIP(sets, ways int) Policy {
	d := &drrip{
		srrip:   NewSRRIP(sets, ways).(*srrip),
		sets:    sets,
		rng:     rand.New(rand.NewSource(1)),
		leaders: make([]int8, sets),
	}
	for i := 0; i < sets; i += 32 {
		d.leaders[i] = 1
		if i+17 < sets {
			d.leaders[i+17] = -1
		}
	}
	d.srrip.fillRRPV = d.fillRRPV
	return d
}

func (d *drrip) Name() string { return "drrip" }

const pselMax = 1023

func (d *drrip) fillRRPV(set int) uint8 {
	useBRRIP := false
	switch d.leaders[set] {
	case 1: // SRRIP leader: a miss here votes for BRRIP
		if d.psel < pselMax {
			d.psel++
		}
	case -1: // BRRIP leader: a miss here votes for SRRIP
		if d.psel > 0 {
			d.psel--
		}
		useBRRIP = true
	default:
		useBRRIP = d.psel > pselMax/2
	}
	if d.leaders[set] == 1 {
		useBRRIP = false
	}
	if useBRRIP {
		// BRRIP: mostly distant (RRPV max), occasionally long.
		d.draws++
		if d.rng.Intn(32) == 0 {
			return rrpvMax - 1
		}
		return rrpvMax
	}
	return rrpvMax - 1
}

// --- SHiP-lite ---------------------------------------------------------

type ship struct {
	*srrip
	ways int
	// shct is the signature history counter table, indexed by a hash
	// of the filling IP.
	shct []uint8
	// sig and outcome remember, per line, the fill signature and
	// whether the line was re-referenced.
	sig     []uint16
	reref   []bool
	shctCap uint8
}

const shctSize = 1 << 13

// NewSHiP returns a SHiP-lite policy: SRRIP insertion steered by a
// signature history counter table keyed on the requesting IP.
func NewSHiP(sets, ways int) Policy {
	s := &ship{
		srrip: NewSRRIP(sets, ways).(*srrip),
		ways:  ways,
		shct:  make([]uint8, shctSize),
		sig:   make([]uint16, sets*ways),
		reref: make([]bool, sets*ways),
	}
	for i := range s.shct {
		s.shct[i] = 1
	}
	return s
}

func (s *ship) Name() string { return "ship" }

func sigOf(r *memsys.Request) uint16 {
	if r == nil {
		return 0
	}
	ip := r.IP
	return uint16((ip ^ ip>>13 ^ ip>>26) & (shctSize - 1))
}

func (s *ship) Hit(set, way int, r *memsys.Request) {
	s.srrip.Hit(set, way, r)
	idx := set*s.ways + way
	if !s.reref[idx] {
		s.reref[idx] = true
		if c := s.shct[s.sig[idx]]; c < 7 {
			s.shct[s.sig[idx]] = c + 1
		}
	}
}

func (s *ship) Fill(set, way int, r *memsys.Request) {
	idx := set*s.ways + way
	// Train on the outgoing line: dead on eviction decrements.
	if !s.reref[idx] {
		if c := s.shct[s.sig[idx]]; c > 0 {
			s.shct[s.sig[idx]] = c - 1
		}
	}
	sig := sigOf(r)
	s.sig[idx] = sig
	s.reref[idx] = false
	if s.shct[sig] == 0 {
		s.rrpv[idx] = rrpvMax // predicted dead-on-arrival
	} else {
		s.rrpv[idx] = rrpvMax - 1
	}
}
