package cache

import (
	"math"
	"math/rand"
	"testing"

	"ipcp/internal/memsys"
)

// refMSHR is the model mshrTable is held to: a slice of structs in
// allocation order, every operation a linear scan.
type refMSHR struct {
	block  uint64
	ready  int64
	issued bool
	e      *mshrEntry // the table's entry for the same miss
}

// TestMSHRTableMatchesModel drives random alloc / find / markIssued /
// free traffic against the slice-of-structs model at an L1's, an L2's
// and an 8-core LLC's capacity.
func TestMSHRTableMatchesModel(t *testing.T) {
	for _, capacity := range []int{8, 32, 512} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		m := newMSHR(capacity)
		var ref []refMSHR
		arrays := map[**memsys.Request]bool{} // waiters backing arrays handed out, by first element
		nextBlock := uint64(1)
		fills, reused := 0, 0

		check := func(step int) {
			t.Helper()
			if m.len() != len(ref) || m.full() != (len(ref) == capacity) {
				t.Fatalf("cap %d step %d: len %d full %v with %d live", capacity, step, m.len(), m.full(), len(ref))
			}
			pending, next := 0, int64(math.MaxInt64)
			for i, r := range ref {
				if got := &m.entries[m.order[i]]; got != r.e {
					t.Fatalf("cap %d step %d: order[%d] is not the %d-th oldest live entry", capacity, step, i, i)
				}
				if r.e.block != r.block || r.e.readyToIssue != r.ready {
					t.Fatalf("cap %d step %d: entry %d is %+v, model %+v", capacity, step, i, *r.e, r)
				}
				if !r.issued {
					if got := &m.entries[m.unissued[pending]]; got != r.e {
						t.Fatalf("cap %d step %d: unissued[%d] is out of allocation order", capacity, step, pending)
					}
					pending++
					if r.ready < next {
						next = r.ready
					}
				}
			}
			if m.pendingIssue() != pending {
				t.Fatalf("cap %d step %d: pendingIssue %d, model %d", capacity, step, m.pendingIssue(), pending)
			}
			if got, ok := m.nextIssue(); ok != (pending > 0) || ok && got != next {
				t.Fatalf("cap %d step %d: nextIssue (%d, %v), model (%d, %v)", capacity, step, got, ok, next, pending > 0)
			}
		}

		for step := 0; step < 40_000; step++ {
			// Fill phases and drain phases, so the table runs both full
			// and empty.
			filling := step/(4*capacity)%2 == 0
			switch op := rng.Intn(10); {
			case op < 4 && filling || op < 1:
				if m.full() {
					break
				}
				fills++
				e := m.alloc()
				for _, r := range ref {
					if r.e == e {
						t.Fatalf("cap %d step %d: alloc returned the live entry of block %d", capacity, step, r.block)
					}
				}
				if len(e.waiters) != 0 {
					t.Fatalf("cap %d step %d: alloc returned %d waiters", capacity, step, len(e.waiters))
				}
				if w := e.waiters[:cap(e.waiters)]; len(w) > 0 {
					if !arrays[&w[0]] {
						t.Fatalf("cap %d step %d: a slot's second occupant got a fresh waiters array", capacity, step)
					}
					reused++
					for _, p := range w {
						if p != nil {
							t.Fatalf("cap %d step %d: a reused waiters array still holds a request", capacity, step)
						}
					}
				}
				e.block = nextBlock
				e.readyToIssue = int64(rng.Intn(1000))
				e.waiters = append(e.waiters, &memsys.Request{}, &memsys.Request{})
				arrays[&e.waiters[0]] = true
				ref = append(ref, refMSHR{block: nextBlock, ready: e.readyToIssue, e: e})
				nextBlock++
			case op < 6:
				// find: a live block, or one never allocated or freed.
				if len(ref) > 0 && rng.Intn(4) > 0 {
					r := ref[rng.Intn(len(ref))]
					if m.find(r.block) != r.e {
						t.Fatalf("cap %d step %d: find(%d) missed a live entry", capacity, step, r.block)
					}
				} else if b := uint64(rng.Intn(int(nextBlock))) + 1; m.find(b) != nil {
					live := false
					for _, r := range ref {
						live = live || r.block == b
					}
					if !live {
						t.Fatalf("cap %d step %d: find(%d) found a freed entry", capacity, step, b)
					}
				}
			case op < 8:
				if n := m.pendingIssue(); n > 0 {
					i := rng.Intn(n)
					e := &m.entries[m.unissued[i]]
					m.markIssued(i)
					for j := range ref {
						if ref[j].e == e {
							ref[j].issued = true
						}
					}
				}
			default:
				if len(ref) == 0 || filling && rng.Intn(3) > 0 {
					break
				}
				i := rng.Intn(len(ref))
				m.free(ref[i].block)
				if len(ref[i].e.waiters) != 0 {
					t.Fatalf("cap %d step %d: free left waiters behind", capacity, step)
				}
				ref = append(ref[:i], ref[i+1:]...)
			}
			check(step)
		}
		if fills < 2*capacity || reused == 0 {
			t.Errorf("cap %d: only %d allocs, %d into a reused slot", capacity, fills, reused)
		}
	}
}
