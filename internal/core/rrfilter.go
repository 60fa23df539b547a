package core

import "ipcp/internal/memsys"

// rrFilter is the paper's 32-entry recent-request filter: it keeps
// 12-bit partial tags of recently seen demand blocks and recently
// generated prefetch addresses, so IPCP never probes the
// bandwidth-starved L1-D before issuing — a hit in the filter drops
// the candidate instead (§V, "L1-D bandwidth and Recent Request
// Filter").
type rrFilter struct {
	// tags is the hardware structure: a 32-entry FIFO of partial tags
	// (Table I's 12 × 32 bits, see storage.go).
	tags [rrEntries]uint16
	pos  int

	// present counts how many FIFO entries hold each tag, so the probe
	// that runs on every candidate the L1 IPCP generates is one load
	// instead of a 32-entry scan. It is simulator bookkeeping derived
	// from tags — hardware compares the 32 tags in parallel — and is
	// not part of the storage budget. A count never exceeds rrEntries.
	present [1 << rrTagBits]uint8

	// probes/hits are observation counters for telemetry snapshots;
	// they never influence filtering decisions.
	probes uint64
	hits   uint64
}

const (
	rrEntries = 32
	rrTagBits = 12
	// rrInvalid marks an empty FIFO entry; no 12-bit tag equals it.
	rrInvalid = 0xffff
)

func newRRFilter() *rrFilter {
	f := &rrFilter{}
	for i := range f.tags {
		f.tags[i] = rrInvalid
	}
	return f
}

func rrTag(addr memsys.Addr) uint16 {
	b := memsys.BlockNumber(addr)
	return uint16((b ^ b>>rrTagBits) & (1<<rrTagBits - 1))
}

// hit reports whether addr's partial tag is present.
func (f *rrFilter) hit(addr memsys.Addr) bool {
	f.probes++
	if f.present[rrTag(addr)] == 0 {
		return false
	}
	f.hits++
	return true
}

// stats returns the cumulative probe and hit counts.
func (f *rrFilter) stats() (probes, hits uint64) { return f.probes, f.hits }

// resetStats zeroes the observation counters (warmup boundary); the
// filter contents are architectural state and stay intact.
func (f *rrFilter) resetStats() { f.probes, f.hits = 0, 0 }

// insert records addr, replacing the oldest entry (FIFO).
func (f *rrFilter) insert(addr memsys.Addr) {
	if old := f.tags[f.pos]; old != rrInvalid {
		f.present[old]--
	}
	t := rrTag(addr)
	f.tags[f.pos] = t
	f.present[t]++
	f.pos = (f.pos + 1) % rrEntries
}
