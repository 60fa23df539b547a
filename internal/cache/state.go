package cache

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ipcp/internal/memsys"
	"ipcp/internal/repl"
)

// Snapshot/restore support. A cache is only captured at quiescence —
// empty request queues, no outstanding MSHR entries, no pending fills —
// so the capturable state is exactly the line array, the replacement
// policy's metadata and the counters.

// State captures a quiescent cache.
type State struct {
	Lines Lines
	Repl  repl.State
	Stats Stats

	// tags is the capture's tag mirror (Cache.tags). It is unexported,
	// so never encoded: a restore from bytes rebuilds it from Lines, a
	// restore in this process copies it.
	tags []uint64
}

// Lines is a captured line array. It encodes itself for gob (a warmup
// spill) as packed bytes — a uvarint count, then per line a flags byte
// and, unless the line is all zero (never filled), its class and
// uvarint tag — which is an order of magnitude faster than gob's
// field-by-field encoding of tens of thousands of structs, and no
// larger.
type Lines []Line

// Line flags in the packed encoding.
const (
	lineValid = 1 << iota
	lineDirty
	linePrefetched
	lineTagged // class and tag follow
)

// GobEncode implements gob.GobEncoder.
func (ls Lines) GobEncode() ([]byte, error) {
	b := make([]byte, 0, binary.MaxVarintLen64+len(ls)*7)
	b = binary.AppendUvarint(b, uint64(len(ls)))
	for _, l := range ls {
		var f byte
		if l.Valid {
			f |= lineValid
		}
		if l.Dirty {
			f |= lineDirty
		}
		if l.Prefetched {
			f |= linePrefetched
		}
		if l.Tag == 0 && l.Class == 0 {
			b = append(b, f)
			continue
		}
		b = append(b, f|lineTagged, byte(l.Class))
		b = binary.AppendUvarint(b, l.Tag)
	}
	return b, nil
}

// GobDecode implements gob.GobDecoder. Bytes GobEncode could not have
// written — a count the bytes cannot hold, unknown flag bits, a cut or
// overlong tag, bytes left over — are an error.
func (ls *Lines) GobDecode(b []byte) error {
	n, k := binary.Uvarint(b)
	// A line takes at least one byte.
	if k <= 0 || n > uint64(len(b)-k) {
		return fmt.Errorf("cache: line array: bad count")
	}
	b = b[k:]
	out := make(Lines, n)
	for i := range out {
		if len(b) == 0 || b[0]&^(lineValid|lineDirty|linePrefetched|lineTagged) != 0 {
			return fmt.Errorf("cache: line array: line %d malformed", i)
		}
		f := b[0]
		l := Line{Valid: f&lineValid != 0, Dirty: f&lineDirty != 0, Prefetched: f&linePrefetched != 0}
		b = b[1:]
		if f&lineTagged != 0 {
			if len(b) == 0 {
				return fmt.Errorf("cache: line array: line %d cut short", i)
			}
			var k int
			l.Class = memsys.PrefetchClass(b[0])
			if l.Tag, k = binary.Uvarint(b[1:]); k <= 0 {
				return fmt.Errorf("cache: line array: line %d tag malformed", i)
			}
			b = b[1+k:]
		}
		out[i] = l
	}
	if len(b) != 0 {
		return fmt.Errorf("cache: line array: %d bytes left over", len(b))
	}
	*ls = out
	return nil
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
		Lines: Lines(slices.Clone(c.lines)),
		Repl:  rs,
		Stats: c.Stats,
		tags:  slices.Clone(c.tags),
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
	if len(s.tags) == len(c.tags) {
		copy(c.tags, s.tags)
	} else {
		for i, l := range s.Lines {
			c.tags[i] = 0
			if l.Valid {
				c.tags[i] = l.Tag + 1
			}
		}
	}
	c.Stats = s.Stats
	c.rqBlocked, c.pqBlocked = false, false
	return nil
}
