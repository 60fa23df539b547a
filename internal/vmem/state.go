package vmem

import "fmt"

// Snapshot/restore support. The virtual-memory state is pure data (page
// maps, TLB arrays) except for the allocator's shuffle RNG, whose
// internal state math/rand does not expose. Rather than serializing RNG
// internals we record the number of Alloc draws and replay them against
// a freshly seeded allocator on restore — deterministic because the
// allocator's output is a pure function of (seed, draw count).

// PhysAllocatorState captures a PhysAllocator for replay-based restore.
type PhysAllocatorState struct {
	Allocs uint64
}

// Allocs returns the number of Alloc calls made so far.
func (a *PhysAllocator) Allocs() uint64 { return a.allocs }

// State captures the allocator's position in its deterministic stream.
func (a *PhysAllocator) State() PhysAllocatorState {
	return PhysAllocatorState{Allocs: a.allocs}
}

// Replay advances a freshly constructed allocator (same seed as the
// captured one) to the captured position by re-drawing; after Replay the
// allocator's future output is identical to the original's.
func (a *PhysAllocator) Replay(s PhysAllocatorState) {
	for a.allocs < s.Allocs {
		a.Alloc()
	}
}

// PageTableState is the mapped-page set of one address space.
type PageTableState struct {
	Pages map[uint64]uint64
}

// State copies the page map.
func (pt *PageTable) State() PageTableState {
	pages := make(map[uint64]uint64, len(pt.pages))
	for v, p := range pt.pages {
		pages[v] = p
	}
	return PageTableState{Pages: pages}
}

// SetState replaces the page map with a copy of s and empties the front
// that caches the old one.
func (pt *PageTable) SetState(s PageTableState) {
	pt.pages = make(map[uint64]uint64, len(s.Pages))
	for v, p := range s.Pages {
		pt.pages[v] = p
	}
	pt.front = [frontSize]frontEntry{}
}

// TLBEntryState is one captured TLB slot.
type TLBEntryState struct {
	VPage uint64
	Valid bool
	LRU   uint64
}

// TLBState captures a TLB's entries, LRU clock and hit counters.
type TLBState struct {
	Entries []TLBEntryState
	Tick    uint64
	Hits    uint64
	Misses  uint64
}

// State captures the TLB contents.
func (t *TLB) State() TLBState {
	s := TLBState{
		Entries: make([]TLBEntryState, len(t.entries)),
		Tick:    t.tick,
		Hits:    t.Hits,
		Misses:  t.Misses,
	}
	for i, e := range t.entries {
		s.Entries[i] = TLBEntryState{VPage: e.vpage, Valid: e.valid, LRU: e.lru}
	}
	return s
}

// SetState restores the TLB contents. The geometry must match the
// capture; a mismatched entry count is refused before anything changes.
func (t *TLB) SetState(s TLBState) error {
	if len(s.Entries) != len(t.entries) {
		return fmt.Errorf("vmem: TLB state has %d entries, TLB has %d", len(s.Entries), len(t.entries))
	}
	for i, e := range s.Entries {
		t.entries[i] = tlbEntry{vpage: e.VPage, valid: e.Valid, lru: e.LRU}
	}
	t.tick = s.Tick
	t.Hits = s.Hits
	t.Misses = s.Misses
	return nil
}

// HierarchyState captures both TLB levels.
type HierarchyState struct {
	DTLB TLBState
	STLB TLBState
}

// State captures the TLB hierarchy.
func (h *Hierarchy) State() HierarchyState {
	return HierarchyState{DTLB: h.DTLB.State(), STLB: h.STLB.State()}
}

// SetState restores the TLB hierarchy.
func (h *Hierarchy) SetState(s HierarchyState) error {
	if err := h.DTLB.SetState(s.DTLB); err != nil {
		return err
	}
	return h.STLB.SetState(s.STLB)
}
