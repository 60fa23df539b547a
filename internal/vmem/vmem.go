// Package vmem models the virtual memory system: per-core page tables
// with first-touch physical page allocation, and a two-level TLB whose
// miss latency is charged to demand accesses before they reach the
// L1-D.
//
// The paper's L1-D is virtually indexed and physically tagged, and IPCP
// trains on virtual addresses at the L1; the simulator therefore keeps
// both the virtual and physical address on every request, and this
// package provides the mapping between them.
package vmem

import (
	"math/rand"

	"ipcp/internal/memsys"
)

// PhysAllocator hands out physical page frames. Frames are allocated in
// a shuffled order so that physically indexed structures (the L2, LLC
// and DRAM banks) do not see artificially contiguous physical pages —
// matching how a real OS's free list behaves after some uptime.
type PhysAllocator struct {
	next uint64
	src  rand.Source // rng's source: what a live capture clones
	rng  *rand.Rand
	// window holds a small shuffle buffer of upcoming frame numbers.
	window []uint64
	// allocs counts Alloc calls: the allocator's output is a pure
	// function of (seed, allocs), which is what snapshot restore replays.
	allocs   uint64
	replayed uint64 // Alloc draws Replay re-drew
}

// NewPhysAllocator returns an allocator seeded deterministically.
func NewPhysAllocator(seed int64) *PhysAllocator {
	src := rand.NewSource(seed)
	return &PhysAllocator{next: 1, src: src, rng: rand.New(src)}
}

// Alloc returns the next free physical page number.
func (a *PhysAllocator) Alloc() uint64 {
	const windowSize = 64
	if len(a.window) == 0 {
		a.window = make([]uint64, windowSize)
		for i := range a.window {
			a.window[i] = a.next
			a.next++
		}
		a.rng.Shuffle(len(a.window), func(i, j int) {
			a.window[i], a.window[j] = a.window[j], a.window[i]
		})
	}
	p := a.window[len(a.window)-1]
	a.window = a.window[:len(a.window)-1]
	a.allocs++
	return p
}

// PageTable maps one address space's virtual pages to physical pages,
// allocating on first touch.
type PageTable struct {
	alloc *PhysAllocator
	// base is the page map of the snapshot the table was restored from,
	// shared and never written; pages holds what the table mapped since
	// (the two are disjoint). A fork so costs no copy of the warmup's map.
	base  map[uint64]uint64
	pages map[uint64]uint64
	// front caches recent mappings in front of the map, direct-mapped by
	// vpage. A mapping never changes once made, so an entry can only be
	// stale by being empty; SetState, which replaces the map, clears it.
	front [frontSize]frontEntry
}

// frontSize is the page-table front's entry count (a power of two).
const frontSize = 64

// frontEntry is one page-table front slot; tag is vpage+1, 0 when empty.
type frontEntry struct {
	tag, ppage uint64
}

// NewPageTable returns an empty page table drawing frames from alloc.
func NewPageTable(alloc *PhysAllocator) *PageTable {
	return &PageTable{alloc: alloc, pages: make(map[uint64]uint64)}
}

// Translate maps a virtual byte address to a physical byte address,
// allocating a frame on first touch.
func (pt *PageTable) Translate(v memsys.Addr) memsys.Addr {
	vpage := memsys.PageNumber(v)
	f := &pt.front[vpage&(frontSize-1)]
	if f.tag != vpage+1 {
		ppage, ok := pt.lookup(vpage)
		if !ok {
			ppage = pt.alloc.Alloc()
			pt.pages[vpage] = ppage
		}
		*f = frontEntry{tag: vpage + 1, ppage: ppage}
	}
	return f.ppage<<memsys.PageBits | v&(memsys.PageSize-1)
}

// TranslateExisting is like Translate but reports whether the page was
// already mapped instead of allocating. Prefetchers use it so that a
// bogus prefetch address does not fault in pages.
func (pt *PageTable) TranslateExisting(v memsys.Addr) (memsys.Addr, bool) {
	vpage := memsys.PageNumber(v)
	f := &pt.front[vpage&(frontSize-1)]
	if f.tag != vpage+1 {
		ppage, ok := pt.lookup(vpage)
		if !ok {
			return 0, false
		}
		*f = frontEntry{tag: vpage + 1, ppage: ppage}
	}
	return f.ppage<<memsys.PageBits | v&(memsys.PageSize-1), true
}

// lookup returns vpage's frame, if mapped.
func (pt *PageTable) lookup(vpage uint64) (uint64, bool) {
	if ppage, ok := pt.base[vpage]; ok {
		return ppage, true
	}
	ppage, ok := pt.pages[vpage]
	return ppage, ok
}

// Mapped returns the number of mapped pages (the footprint in pages).
func (pt *PageTable) Mapped() int { return len(pt.base) + len(pt.pages) }

// --- TLBs ----------------------------------------------------------------

// tlbEntry is one TLB slot.
type tlbEntry struct {
	vpage uint64
	valid bool
	lru   uint64
}

// TLB is a set-associative translation buffer with true-LRU
// replacement. It caches vpage presence only (the page table supplies
// the actual frame; TLB hits/misses purely decide latency).
type TLB struct {
	sets    int
	ways    int
	entries []tlbEntry
	tick    uint64
	// last is the slot of the latest hit or fill, probed before the set
	// scan: a vpage sits in at most one way of its own set, so finding it
	// there is the hit the scan would find.
	last int

	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given geometry. sets must be a power of
// two.
func NewTLB(sets, ways int) *TLB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("vmem: TLB sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("vmem: TLB ways must be positive")
	}
	return &TLB{sets: sets, ways: ways, entries: make([]tlbEntry, sets*ways)}
}

// Lookup probes the TLB for vpage, inserting it on a miss, and reports
// whether it hit.
func (t *TLB) Lookup(vpage uint64) bool {
	t.tick++
	set := int(vpage) & (t.sets - 1)
	base := set * t.ways
	// The slot must also lie in vpage's set: a restored state is only as
	// well placed as the bytes it came from.
	if e := &t.entries[t.last]; e.vpage == vpage && e.valid && uint(t.last-base) < uint(t.ways) {
		e.lru = t.tick
		t.Hits++
		return true
	}
	victim, victimLRU := base, t.entries[base].lru
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if e.valid && e.vpage == vpage {
			e.lru = t.tick
			t.Hits++
			t.last = i
			return true
		}
		if !e.valid {
			victim, victimLRU = i, 0
		} else if e.lru < victimLRU {
			victim, victimLRU = i, e.lru
		}
	}
	t.Misses++
	t.entries[victim] = tlbEntry{vpage: vpage, valid: true, lru: t.tick}
	t.last = victim
	return false
}

// Size returns the total entry count.
func (t *TLB) Size() int { return t.sets * t.ways }

// Hierarchy bundles the DTLB + shared STLB with their latencies and
// charges a translation latency per data access, as in Table II of the
// paper (64-entry DTLB, 1536-entry shared L2 TLB).
type Hierarchy struct {
	DTLB *TLB
	STLB *TLB

	// STLBLatency is the extra cycles charged on a DTLB miss that hits
	// the STLB; WalkLatency on a full miss.
	STLBLatency int
	WalkLatency int
}

// NewHierarchy returns the paper-configured TLB hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		DTLB:        NewTLB(16, 4),   // 64 entries
		STLB:        NewTLB(128, 12), // 1536 entries
		STLBLatency: 8,
		WalkLatency: 150,
	}
}

// AccessLatency charges the translation of v and returns the extra
// cycles the access must wait before the cache lookup may begin.
func (h *Hierarchy) AccessLatency(v memsys.Addr) int {
	vpage := memsys.PageNumber(v)
	if h.DTLB.Lookup(vpage) {
		return 0
	}
	if h.STLB.Lookup(vpage) {
		return h.STLBLatency
	}
	return h.STLBLatency + h.WalkLatency
}
