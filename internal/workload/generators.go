package workload

import (
	"math"
	"math/rand"
	"sort"

	"ipcp/internal/memsys"
)

// MB is one mebibyte of address space.
const MB = 1 << 20

// --- constant stride ------------------------------------------------------

// strideStream is one array walked with a constant stride.
type strideStream struct {
	base        uint64
	strideBytes int64
	footprint   uint64

	cur uint64
}

// strideSource binds load sites to constant-stride streams (the
// paper's CS class: bwaves-like). Site k walks stream k mod N.
type strideSource struct {
	streams []strideStream
}

// newStrideSource builds one stream per entry of strideBlocks (strides
// in cache blocks) with the given per-stream footprint in bytes.
// Streams are spaced 256MB apart in the virtual address space.
func newStrideSource(strideBlocks []int, footprint uint64) *strideSource {
	s := &strideSource{}
	for i, sb := range strideBlocks {
		s.streams = append(s.streams, strideStream{
			base:        uint64(i+1) << 28,
			strideBytes: int64(sb) * memsys.BlockSize,
			footprint:   footprint,
		})
	}
	return s
}

func (s *strideSource) reset(_ *rand.Rand) {
	for i := range s.streams {
		s.streams[i].cur = s.streams[i].base
	}
}

func (s *strideSource) save(w []uint64) []uint64 {
	for _, st := range s.streams {
		w = append(w, st.cur)
	}
	return w
}

func (s *strideSource) load(c *cursor) {
	for i := range s.streams {
		st := &s.streams[i]
		st.cur = c.addr(st.base, st.base+st.footprint, "stride cursor")
	}
}

func (s *strideSource) next(_ *rand.Rand, site int) uint64 {
	st := &s.streams[site%len(s.streams)]
	addr := st.cur
	next := int64(st.cur) + st.strideBytes
	if next < int64(st.base) || uint64(next) >= st.base+st.footprint {
		st.cur = st.base
	} else {
		st.cur = uint64(next)
	}
	return addr
}

// --- complex stride -------------------------------------------------------

// cplxStream walks with a repeating multi-stride pattern (the paper's
// CPLX class: strides like 1,2,1,2 or 3,3,4).
type cplxStream struct {
	base      uint64
	pattern   []int64 // strides in bytes
	footprint uint64

	cur uint64
	pos int
}

// cplxSource gives every load site its own walker so each instruction
// pointer sees the raw alternating stride sequence (sites sharing one
// walker would each observe sums of pattern strides — a constant,
// which defeats the purpose). Site k uses pattern k mod N.
type cplxSource struct {
	patterns  [][]int64
	footprint uint64

	walkers map[int]*cplxStream
}

// newCplxSource builds a per-site complex-stride source; patterns are
// stride sequences in cache blocks.
func newCplxSource(patterns [][]int, footprint uint64) *cplxSource {
	s := &cplxSource{footprint: footprint}
	for _, pat := range patterns {
		bytes := make([]int64, len(pat))
		for j, p := range pat {
			bytes[j] = int64(p) * memsys.BlockSize
		}
		s.patterns = append(s.patterns, bytes)
	}
	return s
}

func (s *cplxSource) reset(_ *rand.Rand) {
	s.walkers = make(map[int]*cplxStream)
}

// walker returns site's walker, starting a new one at the base of the
// site's area on first use.
func (s *cplxSource) walker(site int) *cplxStream {
	st := s.walkers[site]
	if st == nil {
		fp := s.footprint
		if fp > 1<<24 {
			fp = 1 << 24 // per-site areas are spaced 16MB apart
		}
		st = &cplxStream{
			base:      uint64(9)<<28 + uint64(site)<<24,
			pattern:   s.patterns[site%len(s.patterns)],
			footprint: fp,
		}
		st.cur = st.base
		s.walkers[site] = st
	}
	return st
}

// save writes the walkers in site order: a map's own order is random.
func (s *cplxSource) save(w []uint64) []uint64 {
	sites := make([]int, 0, len(s.walkers))
	for site := range s.walkers {
		sites = append(sites, site)
	}
	sort.Ints(sites)
	w = append(w, uint64(len(sites)))
	for _, site := range sites {
		st := s.walkers[site]
		w = append(w, uint64(site), st.cur, uint64(st.pos))
	}
	return w
}

func (s *cplxSource) load(c *cursor) {
	n := c.index(c.sites+1, "cplx walker count")
	prev := -1
	for i := 0; i < n && c.err == nil; i++ {
		site := c.index(c.sites, "cplx site")
		if site <= prev {
			c.fail("cplx site %d after site %d", site, prev)
			return
		}
		prev = site
		st := s.walker(site)
		st.cur = c.addr(st.base, st.base+st.footprint, "cplx cursor")
		st.pos = c.index(len(st.pattern), "cplx pattern index")
	}
}

func (s *cplxSource) next(_ *rand.Rand, site int) uint64 {
	st := s.walker(site)
	addr := st.cur
	st.cur += uint64(st.pattern[st.pos])
	st.pos = (st.pos + 1) % len(st.pattern)
	if st.cur >= st.base+st.footprint {
		st.cur = st.base
		st.pos = 0
	}
	return addr
}

// --- global stream --------------------------------------------------------

// gsSource emits dense region streams: nearly every line of each 2KB
// region is touched, in a locally jumbled order — the lbm/gcc pattern
// the paper's GS class captures. All load sites share the stream (in
// the program, several IPs of the loop body walk the same region), and
// regions advance in a fixed direction.
type gsSource struct {
	base      uint64
	footprint uint64
	direction int64 // +1 or -1 regions
	density   float64
	window    int // shuffle window in lines

	regionStart uint64
	queue       []uint64 // upcoming line addresses within the region
	qpos        int
}

const gsRegionBytes = 2048
const gsRegionLines = gsRegionBytes / memsys.BlockSize // 32

func newGSSource(footprint uint64, direction int64, density float64, window int) *gsSource {
	if window < 1 {
		window = 1
	}
	return &gsSource{
		base: 17 << 28, footprint: footprint,
		direction: direction, density: density, window: window,
	}
}

func (s *gsSource) reset(rng *rand.Rand) {
	if s.direction >= 0 {
		s.regionStart = s.base
	} else {
		s.regionStart = s.base + s.footprint - gsRegionBytes
	}
	s.queue = nil
	s.qpos = 0
	s.fillRegion(rng)
}

// fillRegion builds the jumbled visit order for the current region.
func (s *gsSource) fillRegion(rng *rand.Rand) {
	s.queue = s.queue[:0]
	lines := make([]int, 0, gsRegionLines)
	for l := 0; l < gsRegionLines; l++ {
		if rng.Float64() < s.density {
			lines = append(lines, l)
		}
	}
	if s.direction < 0 {
		for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
			lines[i], lines[j] = lines[j], lines[i]
		}
	}
	// Jumble within a small window, preserving the global direction.
	for w := 0; w < len(lines); w += s.window {
		end := w + s.window
		if end > len(lines) {
			end = len(lines)
		}
		sub := lines[w:end]
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	}
	for _, l := range lines {
		s.queue = append(s.queue, s.regionStart+uint64(l)*memsys.BlockSize)
	}
	s.qpos = 0
}

func (s *gsSource) save(w []uint64) []uint64 {
	w = append(w, s.regionStart, uint64(len(s.queue)))
	w = append(w, s.queue...)
	return append(w, uint64(s.qpos))
}

func (s *gsSource) load(c *cursor) {
	s.regionStart = c.addr(s.base, s.base+s.footprint, "gs region")
	s.queue = c.addrs(s.queue, gsRegionLines, s.regionStart, s.regionStart+gsRegionBytes, "gs queue")
	s.qpos = c.index(len(s.queue)+1, "gs queue position")
}

func (s *gsSource) next(rng *rand.Rand, _ int) uint64 {
	if s.qpos >= len(s.queue) {
		// Advance to the next region (wrapping within the footprint).
		nr := int64(s.regionStart) + s.direction*gsRegionBytes
		if nr < int64(s.base) || uint64(nr) >= s.base+s.footprint {
			if s.direction >= 0 {
				nr = int64(s.base)
			} else {
				nr = int64(s.base + s.footprint - gsRegionBytes)
			}
		}
		s.regionStart = uint64(nr)
		s.fillRegion(rng)
		if len(s.queue) == 0 {
			return s.regionStart
		}
	}
	addr := s.queue[s.qpos]
	s.qpos++
	return addr
}

// --- irregular ------------------------------------------------------------

// irregularSource emits low-spatial-locality accesses over a large
// footprint (mcf/omnetpp-like). A reuse fraction re-touches recent
// blocks to give prefetch-resistant temporal behaviour.
type irregularSource struct {
	base      uint64
	footprint uint64
	reuse     float64
	histCap   int

	hist []uint64
	pos  int
}

func newIrregularSource(footprint uint64, reuse float64) *irregularSource {
	return &irregularSource{
		base: 33 << 28, footprint: footprint,
		reuse: reuse, histCap: 64,
	}
}

func (s *irregularSource) reset(_ *rand.Rand) {
	s.hist = s.hist[:0]
	s.pos = 0
}

func (s *irregularSource) save(w []uint64) []uint64 {
	w = append(w, uint64(s.pos), uint64(len(s.hist)))
	return append(w, s.hist...)
}

func (s *irregularSource) load(c *cursor) {
	s.pos = c.index(math.MaxInt, "irregular history cursor")
	s.hist = c.addrs(s.hist, s.histCap, s.base, s.base+s.footprint, "irregular history")
}

func (s *irregularSource) next(rng *rand.Rand, _ int) uint64 {
	if len(s.hist) > 8 && rng.Float64() < s.reuse {
		return s.hist[rng.Intn(len(s.hist))]
	}
	blocks := s.footprint / memsys.BlockSize
	addr := s.base + uint64(rng.Int63n(int64(blocks)))*memsys.BlockSize
	if len(s.hist) < s.histCap {
		s.hist = append(s.hist, addr)
	} else {
		s.hist[s.pos%s.histCap] = addr
		s.pos++
	}
	return addr
}

// --- small working set (compute-bound) -------------------------------------

// hotSource loops over a small footprint that fits in the L1/L2, so
// demand misses are rare (xalancbmk-like compute-bound behaviour).
type hotSource struct {
	base      uint64
	footprint uint64
	cur       uint64
}

func newHotSource(footprint uint64) *hotSource {
	return &hotSource{base: 49 << 28, footprint: footprint}
}

func (s *hotSource) reset(_ *rand.Rand) { s.cur = s.base }

func (s *hotSource) save(w []uint64) []uint64 { return append(w, s.cur) }

func (s *hotSource) load(c *cursor) { s.cur = c.addr(s.base, s.base+s.footprint, "hot cursor") }

func (s *hotSource) next(_ *rand.Rand, _ int) uint64 {
	addr := s.cur
	// Word-granular walk: a hot loop re-touches each line many times,
	// keeping the L1 miss rate genuinely low.
	s.cur += 8
	if s.cur >= s.base+s.footprint {
		s.cur = s.base
	}
	return addr
}

// --- phase mixing ----------------------------------------------------------

// phaseSource alternates among child sources every phaseLen memory
// operations (mcf-like phase behaviour: regular stretches, then
// pointer-chasing stretches).
type phaseSource struct {
	children []source
	phaseLen int

	cur   int
	count int
}

func newPhaseSource(phaseLen int, children ...source) *phaseSource {
	return &phaseSource{children: children, phaseLen: max(1, phaseLen)}
}

func (s *phaseSource) reset(rng *rand.Rand) {
	s.cur, s.count = 0, 0
	for _, c := range s.children {
		c.reset(rng)
	}
}

func (s *phaseSource) save(w []uint64) []uint64 {
	w = append(w, uint64(s.cur), uint64(s.count))
	for _, c := range s.children {
		w = c.save(w)
	}
	return w
}

func (s *phaseSource) load(c *cursor) {
	s.cur = c.index(len(s.children), "phase")
	s.count = c.index(s.phaseLen+1, "phase count")
	for _, ch := range s.children {
		ch.load(c)
	}
}

func (s *phaseSource) next(rng *rand.Rand, site int) uint64 {
	if s.count >= s.phaseLen {
		s.count = 0
		s.cur = (s.cur + 1) % len(s.children)
	}
	s.count++
	return s.children[s.cur].next(rng, site)
}

// --- interleaving -----------------------------------------------------------

// mixSource statically routes load sites to children with the given
// weights, modelling loop bodies whose sites mix pattern kinds (site k
// always feeds from the same child, so per-IP behaviour is stable).
type mixSource struct {
	children []source
	order    []int
}

func newMixSource(children []source, weights []int) *mixSource {
	m := &mixSource{children: children}
	for i, w := range weights {
		for j := 0; j < w; j++ {
			m.order = append(m.order, i)
		}
	}
	return m
}

func (m *mixSource) reset(rng *rand.Rand) {
	for _, c := range m.children {
		c.reset(rng)
	}
}

func (m *mixSource) save(w []uint64) []uint64 {
	for _, c := range m.children {
		w = c.save(w)
	}
	return w
}

func (m *mixSource) load(c *cursor) {
	for _, ch := range m.children {
		ch.load(c)
	}
}

func (m *mixSource) next(rng *rand.Rand, site int) uint64 {
	c := m.children[m.order[site%len(m.order)]]
	return c.next(rng, site)
}

// --- wide IP fan-out ---------------------------------------------------------

// manyIPSource gives every load site its own stride stream; paired
// with a large loop body it floods the 64-entry IP table
// (cactuBSSN-like), so per-IP classifiers thrash.
type manyIPSource struct {
	numStreams int
	base       uint64
	footprint  uint64
	stride     int64

	curs []uint64
}

func newManyIPSource(numStreams int, footprint uint64, strideBlocks int) *manyIPSource {
	return &manyIPSource{
		numStreams: numStreams, base: 57 << 28, footprint: footprint,
		stride: int64(strideBlocks) * memsys.BlockSize,
	}
}

func (s *manyIPSource) reset(_ *rand.Rand) {
	s.curs = make([]uint64, s.numStreams)
	per := s.footprint / uint64(s.numStreams)
	for i := range s.curs {
		s.curs[i] = s.base + uint64(i)*per
	}
}

func (s *manyIPSource) save(w []uint64) []uint64 { return append(w, s.curs...) }

func (s *manyIPSource) load(c *cursor) {
	per := s.footprint / uint64(s.numStreams)
	for i := range s.curs {
		lo := s.base + uint64(i)*per
		s.curs[i] = c.addr(lo, lo+per, "manyIP cursor")
	}
}

func (s *manyIPSource) next(_ *rand.Rand, site int) uint64 {
	i := site % s.numStreams
	per := s.footprint / uint64(s.numStreams)
	addr := s.curs[i]
	s.curs[i] += uint64(s.stride)
	if s.curs[i] >= s.base+uint64(i)*per+per {
		s.curs[i] = s.base + uint64(i)*per
	}
	return addr
}
