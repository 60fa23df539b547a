package cache

import (
	"math/rand"
	"testing"

	"ipcp/internal/memsys"
)

// BenchmarkCacheLookup times the tag scan on a full cache of the paper's
// L1-D and LLC geometries, three probes in four hitting.
func BenchmarkCacheLookup(b *testing.B) {
	for _, g := range []struct {
		name       string
		sets, ways int
	}{{"L1D", 64, 12}, {"LLC", 2048, 16}} {
		b.Run(g.name, func(b *testing.B) {
			cfg := testConfig()
			cfg.Sets, cfg.Ways = g.sets, g.ways
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			lines := g.sets * g.ways
			for blk := 0; blk < lines; blk++ {
				req := &memsys.Request{Addr: memsys.Addr(blk) << memsys.BlockBits, Type: memsys.Load}
				if !c.install(0, req, false, memsys.ClassNone) {
					b.Fatal("install refused")
				}
			}
			rng := rand.New(rand.NewSource(1))
			probes := make([]uint64, 1<<12)
			for i := range probes {
				probes[i] = uint64(rng.Intn(lines * 4 / 3))
			}
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, way := c.lookup(probes[i&(len(probes)-1)]); way >= 0 {
					hits++
				}
			}
			if b.N >= len(probes) && hits == 0 {
				b.Fatal("no probe hit")
			}
		})
	}
}
