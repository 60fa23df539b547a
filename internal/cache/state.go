package cache

import (
	"fmt"

	"ipcp/internal/repl"
)

// Snapshot/restore support. A cache is only captured at quiescence —
// empty request queues, no outstanding MSHR entries, no pending fills —
// so the capturable state is exactly the line array, the replacement
// policy's metadata and the counters.

// State captures a quiescent cache.
type State struct {
	Lines []Line
	Repl  repl.State
	Stats Stats
}

// Quiescent reports whether the cache holds no in-flight work.
func (c *Cache) Quiescent() bool {
	return c.rq.len() == 0 && c.wq.len() == 0 && c.pq.len() == 0 &&
		c.mshr.len() == 0 && c.fills.len() == 0
}

// CaptureState captures the cache. The cache must be quiescent.
func (c *Cache) CaptureState() (State, error) {
	if !c.Quiescent() {
		rq, wq, pq, mshr := c.Occupancy()
		return State{}, fmt.Errorf("cache %s: not quiescent (rq=%d wq=%d pq=%d mshr=%d fills=%d)",
			c.cfg.Name, rq, wq, pq, mshr, c.fills.len())
	}
	rs, err := repl.Save(c.pol)
	if err != nil {
		return State{}, fmt.Errorf("cache %s: %w", c.cfg.Name, err)
	}
	return State{
		Lines: append([]Line(nil), c.lines...),
		Repl:  rs,
		Stats: c.Stats,
	}, nil
}

// RestoreState overwrites a freshly constructed cache (same Config)
// with the captured state.
func (c *Cache) RestoreState(s State) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: line-array geometry mismatch (%d vs %d)",
			c.cfg.Name, len(s.Lines), len(c.lines))
	}
	if err := repl.Restore(c.pol, s.Repl); err != nil {
		return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
	}
	copy(c.lines, s.Lines)
	for i, l := range s.Lines {
		c.tags[i] = 0
		if l.Valid {
			c.tags[i] = l.Tag + 1
		}
	}
	c.Stats = s.Stats
	c.rqBlocked, c.pqBlocked = false, false
	return nil
}
