package memsys

// Wake is the wake time every clocked component (core, cache, DRAM
// controller) embeds: the earliest cycle at which clocking the
// component could do anything. A scheduler that honours it visits the
// component only once WakeAt() <= now, and after each Cycle(now) re-arms
// it with the component's own NextEvent(now). Between visits the
// component lowers it itself whenever it receives external input:
//
//   - a request pushed from above (Add*) or an out-of-band mutation
//     (a prefetcher swap, a fetch gate) marks it due;
//   - data returned from below (ReturnData) lowers it to the cycle the
//     data becomes ready.
//
// A Wake is a handle: a scheduler keeps every component's wake time in
// one table it can scan without touching the components, and Bind points
// the handle at the component's cell there, along with the scheduler's
// clock. An unbound Wake owns its cell and has no clock — a component
// clocked standalone. The zero value is "due", so a freshly built or
// restored component is visited on its first cycle. A caller that clocks
// the component every cycle never needs to read it. DESIGN.md §10 has
// the full contract.
type Wake struct {
	cell  *int64 // nil: own
	own   int64
	clock *int64 // nil: no scheduler
}

// Bind moves the wake time into cell, which the scheduler owns, and
// attaches the scheduler's clock: *clock is the cycle being stepped
// while components are visited, and the first cycle not yet stepped in
// between.
func (w *Wake) Bind(cell, clock *int64) {
	*cell = *w.at()
	w.cell, w.clock = cell, clock
}

func (w *Wake) at() *int64 {
	if w.cell != nil {
		return w.cell
	}
	return &w.own
}

// Now reports the scheduler's clock, or false for a standalone
// component: one that is told the cycle only by its Cycle calls, and so
// is taken to be clocked on every one of them.
func (w *Wake) Now() (int64, bool) {
	if w.clock == nil {
		return 0, false
	}
	return *w.clock, true
}

// WakeAt returns the earliest cycle the component must next be visited.
func (w *Wake) WakeAt() int64 { return *w.at() }

// ArmWake sets the wake time; a scheduler without a table of its own
// calls it with NextEvent(now) after each Cycle(now).
func (w *Wake) ArmWake(t int64) { *w.at() = t }

// LowerWake moves the wake time down to t if it is later.
func (w *Wake) LowerWake(t int64) {
	if at := w.at(); t < *at {
		*at = t
	}
}

// MarkDue makes the component due at the next opportunity. Simulated
// cycles are never negative, so 0 is always in the past.
func (w *Wake) MarkDue() { *w.at() = 0 }
