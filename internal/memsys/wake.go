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
// The zero value is "due", so a freshly built or restored component is
// visited on its first cycle. A caller that clocks the component every
// cycle never needs to read it. DESIGN.md §10 has the full contract.
type Wake struct{ at int64 }

// WakeAt returns the earliest cycle the component must next be visited.
func (w *Wake) WakeAt() int64 { return w.at }

// ArmWake sets the wake time; the scheduler calls it with NextEvent(now)
// after each Cycle(now).
func (w *Wake) ArmWake(t int64) { w.at = t }

// LowerWake moves the wake time down to t if it is later.
func (w *Wake) LowerWake(t int64) {
	if t < w.at {
		w.at = t
	}
}

// MarkDue makes the component due at the next opportunity. Simulated
// cycles are never negative, so 0 is always in the past.
func (w *Wake) MarkDue() { w.at = 0 }
