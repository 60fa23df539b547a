package vmem

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"ipcp/internal/memsys"
)

// Snapshot/restore support. The virtual-memory state is pure data (page
// maps, TLB arrays) except for the allocator's shuffle RNG, whose
// internal state math/rand does not expose. A capture records the
// number of Alloc draws, which a restore from bytes replays against a
// freshly seeded allocator — deterministic because the allocator's
// output is a pure function of (seed, draw count) — and, in this
// process, a live copy of the allocator that a restore copies instead.

// PhysAllocatorState captures a PhysAllocator for restore.
type PhysAllocatorState struct {
	Allocs uint64

	// live is a copy of the captured allocator; unexported, so never
	// encoded: a state decoded from bytes replays.
	live *PhysAllocator
}

// Allocs returns the number of Alloc calls made so far.
func (a *PhysAllocator) Allocs() uint64 { return a.allocs }

// Replayed returns the number of Alloc draws Replay has re-drawn: zero
// for an allocator only ever restored from live states.
func (a *PhysAllocator) Replayed() uint64 { return a.replayed }

// State captures the allocator's position in its deterministic stream,
// with a live copy of it.
func (a *PhysAllocator) State() PhysAllocatorState {
	return PhysAllocatorState{Allocs: a.allocs, live: a.clone()}
}

// clone is an independent copy of a.
func (a *PhysAllocator) clone() *PhysAllocator {
	src := memsys.CloneSource(a.src)
	return &PhysAllocator{next: a.next, src: src, rng: rand.New(src),
		window: slices.Clone(a.window), allocs: a.allocs}
}

// Replay advances a freshly constructed allocator (same seed as the
// captured one) to the captured position: by copying the live copy when
// s has one, else by re-drawing. Either way its future output is
// identical to the original's.
func (a *PhysAllocator) Replay(s PhysAllocatorState) {
	if l := s.live; l != nil && l.allocs == s.Allocs {
		a.src = memsys.CloneSource(l.src)
		a.rng = rand.New(a.src)
		a.next, a.window, a.allocs = l.next, append(a.window[:0], l.window...), l.allocs
		return
	}
	for a.allocs < s.Allocs {
		a.Alloc()
		a.replayed++
	}
}

// PageTableState is the mapped-page set of one address space.
type PageTableState struct {
	Pages map[uint64]uint64
}

// State copies the page map.
func (pt *PageTable) State() PageTableState {
	pages := make(map[uint64]uint64, pt.Mapped())
	maps.Copy(pages, pt.base)
	maps.Copy(pages, pt.pages)
	return PageTableState{Pages: pages}
}

// SetState replaces the page map with s's and empties the front that
// caches the old one. s's map becomes the table's read-only base, shared
// with every other table restored from it, so s must not change after.
func (pt *PageTable) SetState(s PageTableState) {
	pt.base, pt.pages = s.Pages, make(map[uint64]uint64)
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
