package sim

import (
	"sync"
	"testing"
)

// releaseSpecs are detMatrix cells whose systems exchange arrays when
// released in turn: three one-core systems of one geometry running
// different workloads, the shrunken store-heavy one, and a two-core one
// (same L1/L2 sizes, a different LLC).
var releaseSpecs = []detSpec{detMatrix[0], detMatrix[1], detMatrix[3], detMatrix[4], detMatrix[5]}

// freshResults runs every release spec on a system that is never
// released — the reference the recycled runs are held to.
func freshResults(t *testing.T) [][]byte {
	t.Helper()
	refs := make([][]byte, len(releaseSpecs))
	for i, d := range releaseSpecs {
		refs[i] = marshal(t, d.run(t, false, nil))
	}
	return refs
}

// runReleased builds d's system, runs it, hands its arrays back and
// returns the marshaled result.
func runReleased(t *testing.T, d detSpec) []byte {
	t.Helper()
	sys := d.build(t, false)
	res, err := sys.Run(2000, 10000)
	if err != nil {
		t.Error(err)
		return nil
	}
	sys.Release()
	sys.Release() // idempotent: nothing left to hand back
	return marshal(t, res)
}

// TestReleaseReuseByteIdentical: Build → run → Release → Build → run is
// byte-identical to running on fresh systems, whatever ran on the
// arrays before — every system here but the very first is built from
// arrays another workload left full of lines and stamps.
func TestReleaseReuseByteIdentical(t *testing.T) {
	refs := freshResults(t)
	for round := 0; round < 2; round++ {
		for i, d := range releaseSpecs {
			if got := runReleased(t, d); string(got) != string(refs[i]) {
				t.Fatalf("round %d, %s: result on recycled arrays diverges from a fresh system:\n%s\nvs\n%s",
					round, d.name, got, refs[i])
			}
		}
	}
}

// TestReleaseConcurrentBuilds shares the free lists between eight
// goroutines building, running and releasing at once: an array handed
// to two live systems, or recycled while its system still steps, would
// show as a diverging result here and as a data race under -race.
func TestReleaseConcurrentBuilds(t *testing.T) {
	refs := freshResults(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 2*len(releaseSpecs); n++ {
				i := (g + n) % len(releaseSpecs)
				if got := runReleased(t, releaseSpecs[i]); string(got) != string(refs[i]) {
					t.Errorf("goroutine %d, %s: result diverges from a fresh system", g, releaseSpecs[i].name)
				}
			}
		}(g)
	}
	wg.Wait()
}
