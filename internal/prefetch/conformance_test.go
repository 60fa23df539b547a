package prefetch

import (
	"sort"
	"testing"

	"ipcp/internal/memsys"
)

// Conformance suite: every registered prefetcher must satisfy the
// contract the cache relies on, across a set of canonical access
// scenarios. These are behavioural floor checks, not quality checks.

// parts are the spp-ppf-dspatch composite's components: not registered
// names, but each holds to the contract on its own.
var parts = map[string]func() Prefetcher{
	"spp-ppf": func() Prefetcher { return NewPPF(NewSPP()) },
	"dspatch": func() Prefetcher { return NewDSPatch() },
}

func allNames() []string {
	var out []string
	for _, n := range Names() {
		if n == "none" {
			continue
		}
		out = append(out, n)
	}
	for n := range parts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// build constructs a registered prefetcher or a composite's part.
func build(t *testing.T, name string) Prefetcher {
	t.Helper()
	if f, ok := parts[name]; ok {
		return f()
	}
	p, err := New(name, memsys.LevelL1D)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scenario drives a prefetcher with a deterministic access pattern.
type scenario struct {
	name string
	gen  func(i int) (ip, addr uint64)
}

var scenarios = []scenario{
	{"sequential", func(i int) (uint64, uint64) {
		return 0x400100, 0x10_0000 + uint64(i)*memsys.BlockSize
	}},
	{"stride4", func(i int) (uint64, uint64) {
		return 0x400200, 0x20_0000 + uint64(i)*4*memsys.BlockSize
	}},
	{"two-ips", func(i int) (uint64, uint64) {
		ip := uint64(0x400300 + (i%2)*0x40)
		return ip, 0x30_0000 + uint64(i/2)*memsys.BlockSize + uint64(i%2)*0x8000
	}},
	{"random", func(i int) (uint64, uint64) {
		x := uint64(i) * 2654435761
		return 0x400400 + x%16*4, 0x40_0000 + (x%4096)*memsys.BlockSize
	}},
	{"page-edge", func(i int) (uint64, uint64) {
		// Walk the last lines of successive pages.
		return 0x400500, 0x50_0000 + uint64(i)*memsys.PageSize + 62*memsys.BlockSize
	}},
}

func drive(p Prefetcher, sc scenario, n int, rec *recorder) {
	for i := 0; i < n; i++ {
		ip, addr := sc.gen(i)
		p.Operate(int64(i), &Access{
			Addr: addr, VAddr: addr, IP: ip, Type: memsys.Load, Hit: i%3 == 0,
		}, rec)
		if i%2 == 0 {
			p.Fill(int64(i), &FillEvent{Addr: memsys.BlockAlign(addr), VAddr: memsys.BlockAlign(addr)})
		}
		p.Cycle(int64(i))
	}
}

// TestConformanceNoPanics: every prefetcher survives every scenario.
func TestConformanceNoPanics(t *testing.T) {
	for _, name := range allNames() {
		for _, sc := range scenarios {
			name, sc := name, sc
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				drive(build(t, name), sc, 2000, &recorder{})
			})
		}
	}
}

// TestConformanceCandidatesAligned: issued candidates are always
// block-addressable and non-zero.
func TestConformanceCandidatesAligned(t *testing.T) {
	for _, name := range allNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := build(t, name)
			rec := &recorder{}
			for _, sc := range scenarios {
				drive(p, sc, 1500, rec)
			}
			for _, c := range rec.cands {
				if c.Addr == 0 {
					t.Fatal("zero candidate address")
				}
			}
		})
	}
}

// TestConformanceSequentialCoverage: every prefetcher must produce at
// least one forward candidate on a long unit-stride stream (the
// easiest pattern in existence).
func TestConformanceSequentialCoverage(t *testing.T) {
	for _, name := range allNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := build(t, name)
			rec := &recorder{}
			drive(p, scenarios[0], 4000, rec)
			forward := 0
			for _, c := range rec.cands {
				if c.Addr > 0x10_0000 {
					forward++
				}
			}
			if forward == 0 {
				t.Errorf("%s issued no forward candidates on a sequential stream", name)
			}
		})
	}
}

// TestConformanceRejectedIssueTolerated: a full prefetch queue
// (Issue → false) must not wedge any prefetcher.
func TestConformanceRejectedIssueTolerated(t *testing.T) {
	for _, name := range allNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := build(t, name)
			rec := &recorder{rejectAll: true}
			for _, sc := range scenarios {
				drive(p, sc, 1000, rec)
			}
			// And it still works once the queue frees up. The run must
			// be long enough for region-based prefetchers to re-learn
			// (Bingo stores footprints only on accumulation-table
			// evictions, which need >64 fresh regions).
			rec2 := &recorder{}
			drive(p, scenarios[0], 10000, rec2)
			if name != "nl-miss" && len(rec2.cands) == 0 {
				t.Errorf("%s wedged after queue-full backpressure", name)
			}
		})
	}
}

// TestConformanceDeterminism: identical instances fed identical
// accesses issue identical candidates.
func TestConformanceDeterminism(t *testing.T) {
	for _, name := range allNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() []Candidate {
				p := build(t, name)
				rec := &recorder{}
				for _, sc := range scenarios {
					drive(p, sc, 1200, rec)
				}
				return rec.cands
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i].Addr != b[i].Addr {
					t.Fatalf("candidate %d differs: %#x vs %#x", i, a[i].Addr, b[i].Addr)
				}
			}
		})
	}
}
