package cache

import (
	"math"
	"slices"

	"ipcp/internal/memsys"
)

// mshrEntry tracks one outstanding miss. All requests to the same block
// merge into a single entry; each keeps its own return path so the fill
// can answer every waiter.
type mshrEntry struct {
	block   uint64 // block number (addr >> BlockBits)
	waiters []*memsys.Request

	// readyToIssue delays forwarding the miss to the lower level by the
	// tag-lookup latency (mshrTable.unissued lists the entries still to
	// be forwarded).
	readyToIssue int64

	// prefetchOnly is true while every waiter is a prefetch; a demand
	// merging into such an entry is a "late prefetch".
	prefetchOnly bool
	// class is the prefetch class of the initiating prefetch (for
	// per-class fill attribution).
	class memsys.PrefetchClass
	// meta is the IPCP metadata of the initiating prefetch.
	meta uint16
	// fillLevel is the shallowest (closest-to-core) level the fill
	// must reach across all waiters.
	fillLevel memsys.Level
	// born is the cycle the entry was allocated (latency stats).
	born int64
}

// mshrTable is a fully associative miss-status holding register file.
// Entries are embedded by value in a table sized to the configured MSHR
// count, and every operation costs the live entries or less, never the
// capacity (an 8-core LLC has 512 slots and a mean occupancy of ~70):
// lookups scan the occupied slots (hardware MSHRs are small, and the
// scan beats a map's hashing and per-entry allocation on the
// simulator's hottest path), a free slot comes off a stack, and the
// per-cycle issue scans walk only the entries still to be forwarded.
// Iteration over entries is in allocation order so the simulation stays
// deterministic, and a freed entry's waiters backing array is kept for
// its slot's next occupant.
type mshrTable struct {
	entries []mshrEntry
	// order lists occupied slot indices in allocation order; vacant is
	// the stack of the others.
	order  []int
	vacant []int
	// unissued lists, in allocation order too, the occupied slots not
	// yet forwarded downward. In the common steady state — every
	// outstanding miss issued and waiting for its fill — it is empty, and
	// otherwise it holds the newest few of order.
	unissued []int
}

func newMSHR(capacity int) *mshrTable {
	if capacity <= 0 {
		capacity = 1
	}
	m := &mshrTable{
		entries:  make([]mshrEntry, capacity),
		order:    make([]int, 0, capacity),
		vacant:   make([]int, capacity),
		unissued: make([]int, 0, capacity),
	}
	for i := range m.vacant {
		m.vacant[i] = capacity - 1 - i // slot 0 on top
	}
	return m
}

func (m *mshrTable) find(block uint64) *mshrEntry {
	for _, slot := range m.order {
		if e := &m.entries[slot]; e.block == block {
			return e
		}
	}
	return nil
}

func (m *mshrTable) full() bool { return len(m.vacant) == 0 }

func (m *mshrTable) len() int { return len(m.order) }

// pendingIssue counts live entries not yet forwarded downward.
func (m *mshrTable) pendingIssue() int { return len(m.unissued) }

// alloc claims a free slot and returns it; the caller must have checked
// full() and must set every field except waiters, which comes back
// emptied with its backing array intact — append to it rather than
// assigning a fresh slice.
func (m *mshrTable) alloc() *mshrEntry {
	slot := m.vacant[len(m.vacant)-1]
	m.vacant = m.vacant[:len(m.vacant)-1]
	e := &m.entries[slot]
	*e = mshrEntry{waiters: e.waiters[:0]}
	m.order = append(m.order, slot)
	m.unissued = append(m.unissued, slot)
	return e
}

// markIssued records that the entry at unissued[i] has been forwarded;
// the entries after it move up one place.
func (m *mshrTable) markIssued(i int) {
	m.unissued = slices.Delete(m.unissued, i, i+1)
}

// free releases the entry tracking block, if there is one.
func (m *mshrTable) free(block uint64) {
	for j, slot := range m.order {
		e := &m.entries[slot]
		if e.block != block {
			continue
		}
		if i := slices.Index(m.unissued, slot); i >= 0 {
			m.unissued = slices.Delete(m.unissued, i, i+1)
		}
		// Drop request references (they recycle through the pool) but
		// keep the backing array for the slot's next occupant.
		for k := range e.waiters {
			e.waiters[k] = nil
		}
		e.waiters = e.waiters[:0]
		m.order = slices.Delete(m.order, j, j+1)
		m.vacant = append(m.vacant, slot)
		return
	}
}

// nextIssue reports the earliest readyToIssue among unissued entries
// and whether one exists (the cache's next-event bound).
func (m *mshrTable) nextIssue() (int64, bool) {
	t := int64(math.MaxInt64)
	for _, slot := range m.unissued {
		if r := m.entries[slot].readyToIssue; r < t {
			t = r
		}
	}
	return t, len(m.unissued) > 0
}
