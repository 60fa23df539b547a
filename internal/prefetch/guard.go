package prefetch

import (
	"fmt"
	"runtime/debug"

	"ipcp/internal/memsys"
	"ipcp/internal/telemetry"
)

// The guard's bounds are deliberately loose — far beyond anything a
// healthy prefetcher does — so wrapping never perturbs a correct run;
// they exist to contain a buggy or hostile implementation, not to
// throttle a working one.
const (
	// maxPerOperate caps candidates issued from one Operate call; the
	// largest legitimate burst (Bingo replaying a full 4KB footprint) is
	// 64 lines.
	maxPerOperate = 256
	// maxStrikes is how many budget violations are tolerated before the
	// prefetcher is disabled (a panic disables immediately).
	maxStrikes = 8
)

// GuardStats counts a guard's interventions.
type GuardStats struct {
	Panics           uint64 // panics recovered (at most 1: the first disables)
	BudgetViolations uint64 // candidates rejected for violating a bound
	DroppedCalls     uint64 // Operate/Fill/Cycle calls skipped while disabled
}

// Guard wraps a Prefetcher and makes it fail-safe, the way hardware
// prefetchers are by construction: the worst a wrapped prefetcher can
// do is not prefetch. A panic in any hook, or repeated budget
// violations, permanently disables the inner prefetcher for the rest of
// the run — the simulation continues unprefetched at that level — and
// the trip is recorded in GuardStats and (when a tracer is attached) as
// an EvGuardTrip telemetry event.
//
// Guard deliberately does NOT implement telemetry.Introspector: whether
// the inner prefetcher exposes a snapshot must remain observable
// through type assertions, so callers unwrap via Unwrap first.
type Guard struct {
	inner Prefetcher
	level memsys.Level

	disabled bool
	reason   string
	strikes  int

	tr     *telemetry.Tracer
	trCore int

	// gi is the reusable budget-checking issuer Operate passes to the
	// inner prefetcher (avoids boxing a fresh one per access).
	gi guardIssuer
	// innerNext caches inner's NextEventer (nil when not implemented) —
	// NextEvent runs once per simulated cycle per cache.
	innerNext NextEventer

	Stats GuardStats
	// Stack holds the stack trace of the recovered panic, if any.
	Stack []byte
}

// NewGuard wraps inner for the given cache level. Wrapping the no-op
// prefetcher is pointless but harmless.
func NewGuard(inner Prefetcher, level memsys.Level) *Guard {
	g := &Guard{inner: inner, level: level, trCore: -1}
	g.innerNext, _ = inner.(NextEventer)
	return g
}

// Unwrap returns the guarded prefetcher (telemetry type assertions go
// through here).
func (g *Guard) Unwrap() Prefetcher { return g.inner }

// Level returns the cache level the guard was built for.
func (g *Guard) Level() memsys.Level { return g.level }

// Disabled reports whether the guard has tripped, and why.
func (g *Guard) Disabled() (bool, string) { return g.disabled, g.reason }

// trip disables the inner prefetcher for the rest of the run.
func (g *Guard) trip(now int64, reason string) {
	if g.disabled {
		return
	}
	g.disabled = true
	g.reason = reason
	if g.tr != nil {
		g.tr.Emit(telemetry.Event{
			Cycle: now, Kind: telemetry.EvGuardTrip,
			Level: g.level, Core: g.trCore,
		})
	}
}

// recovered converts a panic in an inner hook into a trip.
func (g *Guard) recovered(now int64, hook string) {
	if r := recover(); r != nil {
		g.Stats.Panics++
		g.Stack = debug.Stack()
		g.trip(now, fmt.Sprintf("panic in %s.%s: %v", g.inner.Name(), hook, r))
	}
}

// strike records one budget violation; maxStrikes of them trip the
// guard.
func (g *Guard) strike(now int64, what string) {
	g.Stats.BudgetViolations++
	g.strikes++
	if g.strikes >= maxStrikes {
		g.trip(now, fmt.Sprintf("budget violations in %s (last: %s)", g.inner.Name(), what))
	}
}

// Name implements Prefetcher.
func (g *Guard) Name() string { return g.inner.Name() }

// Operate implements Prefetcher: forwards to the inner prefetcher with
// panic containment and a budget-checking issuer.
func (g *Guard) Operate(now int64, a *Access, iss Issuer) {
	if g.disabled {
		g.Stats.DroppedCalls++
		return
	}
	defer g.recovered(now, "Operate")
	// Reuse the embedded issuer: a fresh guardIssuer here would escape
	// into the Issuer interface and heap-allocate on every access. Safe
	// because Operate never re-enters the same guard (issuing a
	// candidate enqueues it; it is serviced on a later cycle).
	g.gi = guardIssuer{g: g, inner: iss, now: now}
	g.inner.Operate(now, a, &g.gi)
}

// Fill implements Prefetcher.
func (g *Guard) Fill(now int64, f *FillEvent) {
	if g.disabled {
		g.Stats.DroppedCalls++
		return
	}
	defer g.recovered(now, "Fill")
	g.inner.Fill(now, f)
}

// Cycle implements Prefetcher.
func (g *Guard) Cycle(now int64) {
	if g.disabled {
		return
	}
	defer g.recovered(now, "Cycle")
	g.inner.Cycle(now)
}

// SetTracer implements telemetry.Traceable: the guard keeps the tracer
// for its own trip events and forwards it to the inner prefetcher when
// that one is traceable too.
func (g *Guard) SetTracer(tr *telemetry.Tracer, core int) {
	g.tr = tr
	g.trCore = core
	if t, ok := g.inner.(telemetry.Traceable); ok {
		t.SetTracer(tr, core)
	}
}

// ResetStats implements telemetry.StatsResetter by forwarding; the
// guard's own counters survive the warmup boundary (a warmup trip is
// still a trip).
func (g *Guard) ResetStats() {
	if g.disabled {
		return
	}
	if r, ok := g.inner.(telemetry.StatsResetter); ok {
		r.ResetStats()
	}
}

// guardIssuer enforces the guard's budgets between the inner prefetcher
// and the cache's real issuer.
type guardIssuer struct {
	g      *Guard
	inner  Issuer
	now    int64
	issued int
}

// Issue implements Issuer: candidates beyond the bounds are dropped and
// counted as violations; healthy candidates pass straight through.
func (gi *guardIssuer) Issue(c Candidate) bool {
	g := gi.g
	if g.disabled {
		return false
	}
	if gi.issued >= maxPerOperate {
		g.strike(gi.now, fmt.Sprintf("more than %d candidates from one Operate", maxPerOperate))
		return false
	}
	gi.issued++
	return gi.inner.Issue(c)
}

// Wrapper is implemented by pass-through prefetcher layers (the Guard,
// the audit recorder) so introspection can reach the real prefetcher
// underneath regardless of how many layers are stacked.
type Wrapper interface {
	Unwrap() Prefetcher
}

// Unwrapped returns p with any wrapper layers (Guard, audit recorder,
// ...) removed.
func Unwrapped(p Prefetcher) Prefetcher {
	for {
		w, ok := p.(Wrapper)
		if !ok {
			return p
		}
		p = w.Unwrap()
	}
}
