//go:build !race

package sim

import (
	"runtime"
	"testing"
)

// TestBuildReleaseAllocationBudget pins what array reuse buys: a
// one-core Build allocates ~1.1 MB cold, nine tenths of it cache lines
// and LRU stamps; with the previous system released, a Build + Release
// cycle must stay under 256 KB. Excluded under -race with the other
// allocation tests.
func TestBuildReleaseAllocationBudget(t *testing.T) {
	cycle := func() { buildIPCP(t, "lbm-94").Release() }
	cycle() // stock the free lists
	const cycles = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per > 256<<10 {
		t.Fatalf("Build+Release allocates %d KB per cycle, want <= 256 KB", per>>10)
	} else {
		t.Logf("Build+Release allocates %d KB per cycle", per>>10)
	}
}
