package workload

import (
	"fmt"
	"math/rand"

	"ipcp/internal/memsys"
	"ipcp/internal/trace"
)

// A generator's position is data (trace.Seeker): its seed, how many
// random numbers it has drawn, its loop cursor and each source's cursor.
// Seeking reseeds a fresh generator, loads the cursors and discards the
// recorded number of draws — a couple of nanoseconds each — instead of
// regenerating every instruction before the position. A position taken
// in this process also carries a clone of the random source
// (trace.Position.Live), and seeking to it copies the clone instead of
// discarding anything.

// countingSource is a generator's random source: it counts the numbers
// drawn through it, so a position can say how far into its random
// sequence the stream is.
type countingSource struct {
	src rand.Source64
	n   uint64
	// discarded counts the numbers discard drew to reach a position.
	discarded uint64
}

// clone is an independent copy of s at its current draw.
func (s *countingSource) clone() *countingSource {
	return &countingSource{src: memsys.CloneSource(s.src), n: s.n}
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 { s.n++; return s.src.Int63() }

func (s *countingSource) Uint64() uint64 { s.n++; return s.src.Uint64() }

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed); s.n = 0 }

// discard draws until n numbers have been drawn in all.
func (s *countingSource) discard(n uint64) {
	for ; s.n < n; s.n++ {
		s.src.Uint64()
		s.discarded++
	}
}

// maxDrawsPerNext bounds the random numbers one Next draws: a GS region
// refill (a density draw and a shuffle draw per line) plus the
// instruction's reuse, index, dependence and store draws. A position
// claiming more per instruction is not one this stream reported, and
// discarding its draws would only burn time.
const maxDrawsPerNext = 2*gsRegionLines + 8

// Position implements trace.Seeker.
func (g *gen) Position() trace.Position {
	if g.rng == nil {
		g.Reset()
	}
	w := []uint64{uint64(g.slot), uint64(g.memIdx), g.curLine, uint64(g.dwellPos), 0}
	if g.depState {
		w[4] = 1
	}
	p := trace.Position{Seed: g.seed, Draws: g.draws.n, Cursor: g.src.save(w)}
	return p.WithLive(g.draws.clone())
}

// Discarded counts the random numbers this stream's seeks have drawn
// and thrown away: zero for a stream that only ever sought to positions
// carrying a live source.
func (g *gen) Discarded() uint64 {
	if g.draws == nil {
		return 0
	}
	return g.draws.discarded
}

// Seek implements trace.Seeker.
func (g *gen) Seek(p trace.Position, n int64) error {
	g.Reset()
	if err := g.seek(p, n); err != nil {
		g.Reset()
		return err
	}
	return nil
}

// seek loads p into a reset generator, validating everything before it
// discards a single draw.
func (g *gen) seek(p trace.Position, n int64) error {
	if p.Seed != g.seed {
		return fmt.Errorf("workload: position is for seed %d, not %d", p.Seed, g.seed)
	}
	// Reset has drawn what the sources' reset draws; every Next after it
	// draws at most maxDrawsPerNext.
	if n < 0 || p.Draws < g.draws.n || (p.Draws-g.draws.n)/maxDrawsPerNext > uint64(n) {
		return fmt.Errorf("workload: %d draws is not reachable in %d instructions", p.Draws, n)
	}
	slots := g.loopSlots()
	c := cursor{words: p.Cursor, sites: slots}
	g.slot = c.index(slots, "loop slot")
	g.memIdx = c.index(slots, "memory slot")
	g.curLine = c.next()
	g.dwellPos = c.index(g.dwell, "dwell position")
	g.depState = c.index(2, "dependence state") == 1
	g.src.load(&c)
	if err := c.done(); err != nil {
		return err
	}
	if live, ok := p.Live().(*countingSource); ok {
		if live.n != p.Draws {
			return fmt.Errorf("workload: live source at %d draws, position at %d", live.n, p.Draws)
		}
		// g.rng draws through g.draws, so it goes on from the copy.
		*g.draws = *live.clone()
		return nil
	}
	g.draws.discard(p.Draws)
	return nil
}

// cursor reads a position's cursor words back in the order save wrote
// them, refusing any value the stream could not have held. The first
// refusal sticks; reads after it return zeros.
type cursor struct {
	words []uint64
	sites int // load sites in the loop body: bounds per-site state
	err   error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("workload: invalid position: "+format, args...)
	}
}

// next reads one word.
func (c *cursor) next() uint64 {
	if len(c.words) == 0 {
		c.fail("cursor ends early")
		return 0
	}
	w := c.words[0]
	c.words = c.words[1:]
	return w
}

// index reads a word that must lie in [0, n).
func (c *cursor) index(n int, what string) int {
	w := c.next()
	if w >= uint64(n) {
		c.fail("%s %d not below %d", what, w, n)
		return 0
	}
	return int(w)
}

// addr reads a word that must lie in [lo, hi).
func (c *cursor) addr(lo, hi uint64, what string) uint64 {
	w := c.next()
	if w < lo || w >= hi {
		c.fail("%s %#x outside [%#x, %#x)", what, w, lo, hi)
		return lo
	}
	return w
}

// addrs reads a length of at most limit into dst[:0], then that many
// words in [lo, hi).
func (c *cursor) addrs(dst []uint64, limit int, lo, hi uint64, what string) []uint64 {
	n := c.index(limit+1, what+" length")
	dst = dst[:0]
	for i := 0; i < n && c.err == nil; i++ {
		dst = append(dst, c.addr(lo, hi, what))
	}
	return dst
}

// done reports the first refusal, or words no source read.
func (c *cursor) done() error {
	if len(c.words) > 0 {
		c.fail("%d cursor words left over", len(c.words))
	}
	return c.err
}
