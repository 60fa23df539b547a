package memsys

import "fmt"

// RequestPool is a free list of Request values shared by the components
// of one simulated system. A pool is only ever touched from one
// goroutine at a time — a system is stepped single-threaded — so a
// plain slice beats sync.Pool: no locking, no per-P caches, and
// requests recycle deterministically. Requests may migrate between
// pools (created from one, recycled into another); a Request carries no
// pool affinity, so migration is harmless.
//
// Ownership protocol: the component that finishes a request recycles
// it — a core recycles its own requests when ReturnData hands them
// back, a cache recycles the forwarded requests it created once their
// fill installs (and any waiter whose ReturnTo is nil), and the DRAM
// controller recycles writebacks when they are scheduled. Get returns
// a dirty Request; every creation site must write every field. The hot
// ones (a core's loads and code reads, a cache's prefetches and
// forwarded misses) store field by field, because a composite literal
// of this size is built aside and block-copied; tests hand each of them
// a poisoned request and check that nothing of it survives.
//
// A nil *RequestPool is valid and degrades to plain allocation, so
// components constructed outside sim.Build (unit tests, tools) work
// unchanged.
type RequestPool struct {
	free []*Request

	// Audit mode (EnableAudit): inFree tracks the identity of every
	// free-listed request so a double Put — the ownership bug the
	// protocol above is designed to prevent — is caught at the second
	// Put instead of corrupting two in-flight requests much later.
	// nil (the default) keeps Get/Put on the allocation-free fast path.
	inFree      map[*Request]struct{}
	report      func(detail string)
	outstanding int
}

// NewRequestPool returns an empty pool.
func NewRequestPool() *RequestPool { return &RequestPool{} }

// EnableAudit switches the pool into audit mode: every Put of a request
// already on the free list is reported through report (a double-free),
// and Outstanding tracks the live-request balance. Audit mode allocates
// per call and exists for the audit/test harness, not production runs.
func (p *RequestPool) EnableAudit(report func(detail string)) {
	if p == nil {
		return
	}
	p.inFree = make(map[*Request]struct{}, len(p.free))
	for _, r := range p.free {
		p.inFree[r] = struct{}{}
	}
	p.report = report
}

// Outstanding reports the audit-mode balance of requests handed out
// (Get calls, including fresh allocations) minus requests recycled.
// Meaningless (zero) outside audit mode.
func (p *RequestPool) Outstanding() int {
	if p == nil {
		return 0
	}
	return p.outstanding
}

// Get returns a Request for reuse. The caller must overwrite every
// field before use; the returned value holds stale contents.
func (p *RequestPool) Get() *Request {
	if p == nil || len(p.free) == 0 {
		if p != nil && p.inFree != nil {
			p.outstanding++
		}
		return &Request{}
	}
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	if p.inFree != nil {
		delete(p.inFree, r)
		p.outstanding++
	}
	return r
}

// Put recycles r. The caller must not touch r afterwards; r must not be
// reachable from any queue, MSHR, or fill buffer.
func (p *RequestPool) Put(r *Request) {
	if p == nil || r == nil {
		return
	}
	if p.inFree != nil {
		if _, dup := p.inFree[r]; dup {
			if p.report != nil {
				p.report(fmt.Sprintf("double free of request %p (addr %#x type %v)", r, r.Addr, r.Type))
			}
			return // keep the free list consistent: one copy only
		}
		p.inFree[r] = struct{}{}
		p.outstanding--
	}
	p.free = append(p.free, r)
}

// Len reports the number of free requests held (testing).
func (p *RequestPool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
