package prefetch

import "ipcp/internal/memsys"

// PPF wraps an underlying prefetcher with a Perceptron Prefetch Filter
// [Bhatia et al., ISCA 2019]: every candidate the inner prefetcher
// proposes is scored by a set of perceptron weight tables over simple
// features; candidates below the rejection threshold are dropped. The
// filter trains on outcome events — a demand hit on a prefetched line
// is a positive example, an unused prefetched line evicted is a
// negative one — using a table of recently filtered decisions.
type PPF struct {
	inner Prefetcher

	// weight tables, one per feature, each 1024 7-bit-equivalent
	// signed counters.
	weights [ppfNumFeatures][]int16

	// recent remembers the features of recently accepted prefetches,
	// keyed by block number, so outcomes can train the right weights.
	recent map[uint64][ppfNumFeatures]uint16

	// thresholds
	tAccept int
	tTrain  int

	Accepted, Rejected uint64
}

const (
	ppfNumFeatures = 4
	ppfTableSize   = 1024
	ppfWeightMax   = 63
)

// NewPPF wraps inner with a perceptron filter.
func NewPPF(inner Prefetcher) *PPF {
	p := &PPF{
		inner:   inner,
		recent:  make(map[uint64][ppfNumFeatures]uint16),
		tAccept: -4,
		tTrain:  16,
	}
	for i := range p.weights {
		p.weights[i] = make([]int16, ppfTableSize)
	}
	return p
}

// Name implements Prefetcher.
func (p *PPF) Name() string { return p.inner.Name() + "+ppf" }

// features extracts the perceptron features for a candidate block
// triggered by access a.
func (p *PPF) features(a *Access, cand memsys.Addr) [ppfNumFeatures]uint16 {
	trig := a.Addr
	if a.VAddr != 0 {
		trig = a.VAddr
	}
	delta := int64(memsys.BlockNumber(cand)) - int64(memsys.BlockNumber(trig))
	return [ppfNumFeatures]uint16{
		uint16(hash64(a.IP) % ppfTableSize),
		uint16(uint64(delta+memsys.LinesPerPage) % ppfTableSize),
		uint16(memsys.BlockNumber(cand) % ppfTableSize),
		uint16(hash64(a.IP^uint64(delta)<<32) % ppfTableSize),
	}
}

func (p *PPF) score(f [ppfNumFeatures]uint16) int {
	s := 0
	for i := range f {
		s += int(p.weights[i][f[i]])
	}
	return s
}

func (p *PPF) train(f [ppfNumFeatures]uint16, up bool) {
	for i := range f {
		w := &p.weights[i][f[i]]
		if up && *w < ppfWeightMax {
			*w++
		}
		if !up && *w > -ppfWeightMax {
			*w--
		}
	}
}

// ppfIssuer intercepts the inner prefetcher's candidates.
type ppfIssuer struct {
	p   *PPF
	a   *Access
	iss Issuer
}

// Issue implements Issuer, filtering through the perceptron.
func (fi ppfIssuer) Issue(c Candidate) bool {
	f := fi.p.features(fi.a, c.Addr)
	if fi.p.score(f) < fi.p.tAccept {
		fi.p.Rejected++
		// Remember rejected candidates too: if the block is demanded
		// soon we missed coverage and should train upward. We encode
		// rejection by storing with a sentinel in recent (same
		// training signal via demand misses is not observable here,
		// so rejected candidates simply age out).
		return false
	}
	fi.p.Accepted++
	if len(fi.p.recent) > 4096 {
		fi.p.recent = make(map[uint64][ppfNumFeatures]uint16)
	}
	fi.p.recent[memsys.BlockNumber(c.Addr)] = f
	return fi.iss.Issue(c)
}

// Operate implements Prefetcher.
func (p *PPF) Operate(now int64, a *Access, iss Issuer) {
	// Outcome training: a demand hit on a prefetched line is a
	// positive example for the features that admitted it.
	if a.HitPrefetched {
		trig := a.Addr
		if a.VAddr != 0 {
			trig = a.VAddr
		}
		if f, ok := p.recent[memsys.BlockNumber(trig)]; ok {
			p.train(f, true)
			delete(p.recent, memsys.BlockNumber(trig))
		}
	}
	p.inner.Operate(now, a, ppfIssuer{p: p, a: a, iss: iss})
}

// Fill implements Prefetcher: an unused prefetched victim is a
// negative training example.
func (p *PPF) Fill(now int64, f *FillEvent) {
	if f.EvictedUnusedPrefetch {
		key := memsys.BlockNumber(f.Evicted)
		if feat, ok := p.recent[key]; ok {
			p.train(feat, false)
			delete(p.recent, key)
		}
	}
	p.inner.Fill(now, f)
}

// Cycle implements Prefetcher.
func (p *PPF) Cycle(now int64) { p.inner.Cycle(now) }
