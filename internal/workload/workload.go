// Package workload provides deterministic synthetic instruction-stream
// generators standing in for the paper's SPEC CPU 2017, CloudSuite and
// CNN/RNN traces (which are not redistributable). Each generator
// reproduces the *access-pattern class* its namesake benchmark exhibits
// — constant strides, complex repeating strides, dense streaming
// regions, or irregular low-locality accesses — because those classes
// are what the paper's IP classifier keys on and what determines the
// relative ranking of prefetchers. See DESIGN.md §4 for the
// substitution rationale.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"ipcp/internal/memsys"
	"ipcp/internal/trace"
)

// Class buckets generators by their dominant access pattern.
type Class string

const (
	ClassStride    Class = "stride"    // constant-stride dominant
	ClassComplex   Class = "complex"   // repeating multi-stride pattern
	ClassStream    Class = "stream"    // dense region streaming
	ClassIrregular Class = "irregular" // low spatial locality
	ClassMixed     Class = "mixed"     // phase-alternating
	ClassCompute   Class = "compute"   // low MPKI
	ClassCloud     Class = "cloud"     // server-like
	ClassNN        Class = "nn"        // neural-network-like
)

// Spec is one named workload.
type Spec struct {
	Name string
	// Benchmark is the SPEC/CloudSuite/NN benchmark the generator
	// mimics.
	Benchmark string
	Class     Class
	// MemIntensive marks workloads standing in for the paper's
	// LLC-MPKI ≥ 1 trace set.
	MemIntensive bool
	// Suite is "spec", "cloud" or "nn".
	Suite string

	// NewStream constructs the workload's instruction stream.
	// Implementations must be deterministic per seed.
	NewStream func(seed int64) trace.Stream
}

// New instantiates the workload's instruction stream with the given
// seed. Streams are infinite and deterministic per (spec, seed).
func (s Spec) New(seed int64) trace.Stream { return s.NewStream(seed) }

var specs []Spec
var byName = map[string]int{}

// Register adds a workload to the registry. It panics on a duplicate
// name or a nil NewStream — both are programming errors caught at init
// time, not runtime conditions. Tests that register synthetic
// workloads (e.g. fault-injecting streams) must pick unique names.
func Register(s Spec) {
	if s.NewStream == nil {
		panic(fmt.Sprintf("workload: %q has no NewStream", s.Name))
	}
	if _, dup := byName[s.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate %q", s.Name))
	}
	byName[s.Name] = len(specs)
	specs = append(specs, s)
}

// register keeps this package's many init-time call sites short.
func register(s Spec) { Register(s) }

// Named returns the workload with the given name.
func Named(name string) (Spec, error) {
	i, ok := byName[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
	}
	return specs[i], nil
}

// All returns every registered workload, sorted by name.
func All() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Suite returns the workloads of one suite ("spec", "cloud", "nn"),
// sorted by name.
func Suite(suite string) []Spec {
	var out []Spec
	for _, s := range All() {
		if s.Suite == suite {
			out = append(out, s)
		}
	}
	return out
}

// MemoryIntensive returns the SPEC-like memory-intensive trace set —
// the stand-in for the paper's 46 LLC-MPKI ≥ 1 traces.
func MemoryIntensive() []Spec {
	var out []Spec
	for _, s := range All() {
		if s.Suite == "spec" && s.MemIntensive {
			out = append(out, s)
		}
	}
	return out
}

// Names extracts the names of a spec list.
func Names(ss []Spec) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

// --- generator scaffolding ----------------------------------------------

// gen is the common machinery of all generators. It emulates a loop
// nest: the code walks a loop body of codeBlocks cache blocks (16
// instructions per block) and wraps with a taken branch, so every
// memory instruction has a stable instruction pointer — its slot in
// the loop body — exactly as per-IP classifiers see in real traces.
// Concrete pattern generators supply only the address stream.
type gen struct {
	seed int64
	rng  *rand.Rand
	// draws is rng's source: it counts what rng has drawn (see Position).
	draws *countingSource

	// memEvery makes every memEvery-th loop slot a memory instruction
	// (≥2 so branch slots exist; 1 is clamped to 2).
	memEvery int
	// branchEvery inserts an in-loop branch at slots where
	// slot%branchEvery == branchEvery-1 (0 disables). In-loop
	// branches are mostly not taken; the loop-back branch is taken.
	branchEvery int
	// takenBias is the probability an in-loop branch is taken.
	takenBias float64
	// storeFrac is the fraction of memory ops that are stores.
	storeFrac float64
	// codeBase/codeBlocks define the loop body.
	codeBase   uint64
	codeBlocks int
	// dwell repeats each source-provided cache line for dwell
	// consecutive memory slots at successive word offsets, modelling
	// element-wise walks that touch a line several times (this sets
	// the workload's MPKI: ~1000/(memEvery*dwell) at the L1).
	dwell int
	// depFrac is the stationary fraction of new lines whose first
	// touch is a dependent load (address computed from earlier load
	// data). Dependent lines come in Markov chains (persistence
	// depStick) because pointer chases are consecutive in real code:
	// a chain longer than the ROB window is what actually exposes
	// memory latency. High values give mcf-like serialization; low
	// values bwaves-like independent index walks.
	depFrac float64
	// depStick is the probability of staying in a dependent chain
	// (default 0.75 ⇒ mean chain length 4 lines).
	depStick float64

	slot     int // current slot within the loop body
	memIdx   int // index of the memory slot within this loop pass
	curLine  uint64
	dwellPos int
	depState bool

	// kinds is the loop body's slot-kind table, one entry per slot, built
	// by Reset from memEvery, branchEvery and codeBlocks.
	kinds []slotKind

	src source
}

// slotKind is what a loop slot holds.
type slotKind uint8

const (
	slotPlain    slotKind = iota // no memory operand, no branch
	slotMem                      // a load or store
	slotBranch                   // an in-loop branch, mostly not taken
	slotLoopBack                 // the loop-back branch, always taken
)

// source produces memory addresses; concrete pattern generators
// implement it. site identifies the memory instruction slot (dwell
// group) within the loop body, so a source can bind each load site to
// one of its internal streams — giving every instruction pointer a
// consistent access pattern, as in real loop nests. reset must fully
// reinitialize internal state (rng is freshly seeded by the caller).
// save appends every piece of state reset initializes to w, and load
// reads it back into a reset source, refusing values the source could
// not have held.
type source interface {
	next(rng *rand.Rand, site int) (addr uint64)
	reset(rng *rand.Rand)
	save(w []uint64) []uint64
	load(c *cursor)
}

func newGen(seed int64, memEvery, branchEvery int, storeFrac float64) *gen {
	g := &gen{
		seed:        seed,
		memEvery:    max(2, memEvery),
		branchEvery: branchEvery,
		takenBias:   0.08,
		storeFrac:   storeFrac,
		codeBase:    0x40_0000,
		codeBlocks:  8,
		dwell:       1,
		depStick:    0.75,
	}
	return g
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Reset reinitializes the stream.
func (g *gen) Reset() {
	g.draws = newCountingSource(g.seed)
	g.rng = rand.New(g.draws)
	g.slot = 0
	g.memIdx = 0
	g.curLine = 0
	g.dwellPos = 0
	g.depState = false
	g.src.reset(g.rng)
	g.kinds = g.kinds[:0]
	for s, n := 0, g.loopSlots(); s < n; s++ {
		k := slotPlain
		switch {
		case s == n-1:
			k = slotLoopBack
		case s%g.memEvery == g.memEvery-1:
			k = slotMem
		case g.branchEvery > 0 && s%g.branchEvery == g.branchEvery-1:
			k = slotBranch
		}
		g.kinds = append(g.kinds, k)
	}
}

// loopSlots is the number of instruction slots in the loop body.
func (g *gen) loopSlots() int { return g.codeBlocks * memsys.BlockSize / 4 }

// Next implements trace.Stream.
func (g *gen) Next(in *trace.Instr) bool {
	if g.rng == nil {
		g.Reset()
	}
	ip := g.codeBase + uint64(g.slot)*4
	switch g.kinds[g.slot] {
	case slotPlain:
		*in = trace.Instr{IP: ip}
	case slotLoopBack:
		*in = trace.Instr{IP: ip, IsBranch: true, Taken: true, Target: g.codeBase}
	case slotMem:
		firstTouch := g.dwellPos == 0
		if firstTouch {
			site := g.memIdx / g.dwell
			line := g.src.next(g.rng, site)
			g.curLine = memsys.BlockAlign(line)
			if g.curLine == 0 {
				g.curLine = memsys.BlockSize
			}
		}
		// Word offsets wrap within the 64-byte line for dwell > 8
		// (revisiting words, as reduction loops do).
		addr := g.curLine + uint64(g.dwellPos*8)%memsys.BlockSize
		g.dwellPos++
		if g.dwellPos >= g.dwell {
			g.dwellPos = 0
		}
		g.memIdx++
		if firstTouch && g.depFrac > 0 && g.depFrac < 1 {
			// Two-state Markov chain with stationary probability
			// depFrac and persistence depStick.
			if g.depState {
				g.depState = g.rng.Float64() < g.depStick
			} else {
				enter := g.depFrac * (1 - g.depStick) / (1 - g.depFrac)
				g.depState = g.rng.Float64() < enter
			}
		} else if firstTouch && g.depFrac >= 1 {
			g.depState = true
		}
		if g.storeFrac > 0 && g.rng.Float64() < g.storeFrac {
			*in = trace.Instr{IP: ip, Stores: [trace.MaxStores]uint64{addr}}
		} else {
			// Every access of a dependent line waits: they are all
			// fields behind the not-yet-loaded pointer. (Siblings
			// chain through each other, which resolves immediately
			// once the line's fill returns.)
			*in = trace.Instr{IP: ip, Loads: [trace.MaxLoads]uint64{addr}, DepPrev: g.depState}
		}
	case slotBranch:
		// In-loop branch (an if that mostly falls through).
		*in = trace.Instr{IP: ip, IsBranch: true, Taken: g.rng.Float64() < g.takenBias, Target: ip + 8}
	}
	g.slot++
	if g.slot >= len(g.kinds) {
		g.slot = 0
		g.memIdx = 0
		g.dwellPos = 0
	}
	return true
}

// SetDepFrac overrides the dependent-load fraction of a generator
// produced by this package (no-op for other streams). Experiments use
// it for sensitivity sweeps.
func SetDepFrac(s trace.Stream, f float64) {
	if g, ok := s.(*gen); ok {
		g.depFrac = f
	}
}
