package chaos

// This file holds the adversaries tests pass into the simulator (as
// opposed to the injection points production code hits): instruction
// streams that panic or die mid-run, prefetchers that panic or issue
// runaway prefetch floods, and byte-level corrupters. They make the
// harness's survival guarantees (panic isolation, guard trips, corrupt
// -file rejection) provable by tests instead of asserted in prose.

import (
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/trace"
)

// PanicStream wraps an instruction stream and panics on the Nth call
// to Next (1-based). Reset rewinds both the inner stream and the
// countdown, so a warmup+measure run re-arms the bomb.
type PanicStream struct {
	Inner   trace.Stream
	PanicAt uint64 // Next call count that panics; 0 never panics
	calls   uint64
}

// Next implements trace.Stream.
func (s *PanicStream) Next(in *trace.Instr) bool {
	s.calls++
	if s.PanicAt != 0 && s.calls == s.PanicAt {
		panic("chaos: stream panic")
	}
	return s.Inner.Next(in)
}

// Reset implements trace.Stream.
func (s *PanicStream) Reset() {
	s.calls = 0
	s.Inner.Reset()
}

// DeadStream produces no instructions, even after Reset — the shape of
// an empty or exhausted trace file. The simulator must degrade this to
// an error, never hang or crash.
type DeadStream struct{}

// Next implements trace.Stream.
func (DeadStream) Next(*trace.Instr) bool { return false }

// Reset implements trace.Stream.
func (DeadStream) Reset() {}

// PanicPrefetcher panics on the Nth Operate call (1-based). Wrapped in
// a prefetch.Guard it must trip the guard and let the run complete;
// unguarded it takes the worker down (which Session must contain).
type PanicPrefetcher struct {
	PanicAt uint64 // Operate call count that panics; 0 never panics
	calls   uint64
}

// Name implements prefetch.Prefetcher.
func (p *PanicPrefetcher) Name() string { return "chaos-panic" }

// Operate implements prefetch.Prefetcher.
func (p *PanicPrefetcher) Operate(now int64, a *prefetch.Access, iss prefetch.Issuer) {
	p.calls++
	if p.PanicAt != 0 && p.calls == p.PanicAt {
		panic("chaos: prefetcher panic")
	}
}

// Fill implements prefetch.Prefetcher.
func (p *PanicPrefetcher) Fill(int64, *prefetch.FillEvent) {}

// Cycle implements prefetch.Prefetcher.
func (p *PanicPrefetcher) Cycle(int64) {}

// RunawayPrefetcher floods the issuer with Flood candidates on every
// Operate — the software model of a broken degree counter. A Guard's
// per-Operate budget must cut it off.
type RunawayPrefetcher struct {
	Flood int
}

// Name implements prefetch.Prefetcher.
func (p *RunawayPrefetcher) Name() string { return "chaos-runaway" }

// Operate implements prefetch.Prefetcher.
func (p *RunawayPrefetcher) Operate(now int64, a *prefetch.Access, iss prefetch.Issuer) {
	base := a.Addr
	if a.VAddr != 0 {
		base = a.VAddr
	}
	for i := 1; i <= p.Flood; i++ {
		iss.Issue(prefetch.Candidate{Addr: base + memsys.Addr(i)*memsys.BlockSize})
	}
}

// Fill implements prefetch.Prefetcher.
func (p *RunawayPrefetcher) Fill(int64, *prefetch.FillEvent) {}

// Cycle implements prefetch.Prefetcher.
func (p *RunawayPrefetcher) Cycle(int64) {}

// Truncate returns the first n bytes of a serialized trace (a copy) —
// a download cut short.
func Truncate(b []byte, n int) []byte {
	if n > len(b) {
		n = len(b)
	}
	out := make([]byte, n)
	copy(out, b[:n])
	return out
}

// FlipBits returns a copy of b with the byte at off XORed with mask —
// a single-sector corruption.
func FlipBits(b []byte, off int, mask byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	if off >= 0 && off < len(out) {
		out[off] ^= mask
	}
	return out
}
