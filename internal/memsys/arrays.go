package memsys

import (
	"sync"
	"unsafe"
)

// ArrayPool is a bounded free list of large pointer-free arrays, keyed
// by exact length: a cache's line array, an LRU policy's stamp array.
// A short simulation is dominated by allocating and garbage-collecting
// these (87 % of the 1.1 MB a one-core sim.Build allocates), and the
// next build of the same geometry wants exactly the same sizes back.
//
// Unlike RequestPool it is shared by every system in the process, so it
// locks; unlike sync.Pool it survives garbage collections (the point is
// to have fewer of them) and is bounded in bytes instead. The zero
// value is ready to use.
//
// Ownership: Put hands the array over — the caller must drop every
// reference to it, and must be the only goroutine that could still
// touch it (see sim.System.Release for who that is).
type ArrayPool[T any] struct {
	mu       sync.Mutex
	free     map[int][][]T
	retained int // bytes held on the free lists
}

// arrayPoolBudget bounds the bytes one pool retains. An 8-core LLC's
// line array is 4 MB; the budget keeps a handful of those and hundreds
// of one-core arrays. A Put that would exceed it drops the array to the
// garbage collector, which is always correct.
const arrayPoolBudget = 32 << 20

// Get returns a zeroed array of length n: a recycled one when the free
// list for n is non-empty, a fresh allocation otherwise.
func (p *ArrayPool[T]) Get(n int) []T {
	p.mu.Lock()
	list := p.free[n]
	if len(list) == 0 {
		p.mu.Unlock()
		return make([]T, n)
	}
	a := list[len(list)-1]
	list[len(list)-1] = nil
	p.free[n] = list[:len(list)-1]
	p.retained -= arrayBytes(a)
	p.mu.Unlock()
	clear(a)
	return a
}

// Put recycles a; see the ownership rule above.
func (p *ArrayPool[T]) Put(a []T) {
	if len(a) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.retained+arrayBytes(a) > arrayPoolBudget {
		return
	}
	if p.free == nil {
		p.free = make(map[int][][]T)
	}
	p.free[len(a)] = append(p.free[len(a)], a)
	p.retained += arrayBytes(a)
}

func arrayBytes[T any](a []T) int {
	var zero T
	return len(a) * int(unsafe.Sizeof(zero))
}
