package audit

import (
	"fmt"

	"ipcp/internal/core"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/telemetry"
)

// oracleMuteAfter stops lockstep comparison for a recorder after this
// many oracle violations: once the reference and the implementation
// disagree their states drift apart, and every further access would
// spray cascading mismatches that bury the root cause.
const oracleMuteAfter = 8

// oracle is the lockstep reference model a recorder drives. Operate
// regenerates the candidate stream from scratch and matches it against
// what the production prefetcher issued; postFill/postCycle cross-check
// the throttle and NL-gate state; finishChecks compares the cumulative
// counters at end of run.
type oracle interface {
	Operate(now int64, a *prefetch.Access, m *opMatcher)
	Fill(now int64, f *prefetch.FillEvent)
	Cycle(now int64)
	ResetStats()
	postFill(rep func(kind, detail string))
	postCycle(rep func(kind, detail string))
	finishChecks(rep func(kind, detail string))
}

// candRec is one candidate the production prefetcher pushed through the
// recorder's issuer during the current Operate, with the verdict the
// cache returned.
type candRec struct {
	addr     memsys.Addr
	ip       memsys.Addr
	class    memsys.PrefetchClass
	meta     uint16
	accepted bool
}

// recorder wraps a cache's attached prefetcher (usually the fail-safe
// Guard around the real one). It interposes the issuer to record every
// candidate with its verdict, checks the paper's inline invariants at
// issue time, and replays each Operate through the reference oracle.
// It forwards Name/NextEvent/SetTracer/ResetStats so wrapping never
// changes scheduling or telemetry behaviour.
type recorder struct {
	k     *Checker
	name  string
	inner prefetch.Prefetcher
	guard *prefetch.Guard // nil when the build is unguarded

	l1 *core.L1IPCP // unwrapped target, when it is the L1 IPCP
	l2 *core.L2IPCP // unwrapped target, when it is the L2 IPCP

	ipcp bool
	ceil [memsys.NumClasses]int

	ora        oracle
	oracleDead bool
	oracleVios int

	rr *refRRFilter // RR-filter mirror for the rr-readmit invariant

	innerNext prefetch.NextEventer
	ri        recIssuer

	// per-Operate state
	now      int64
	trigger  memsys.Addr
	curCands []candRec
	perClass [memsys.NumClasses]int

	stream []issueRec // accepted candidates (Options.RecordStreams)
}

func newRecorder(k *Checker, inner prefetch.Prefetcher, name string) *recorder {
	r := &recorder{k: k, name: name, inner: inner}
	r.guard, _ = inner.(*prefetch.Guard)
	r.innerNext, _ = inner.(prefetch.NextEventer)
	target := prefetch.Unwrapped(inner)
	r.ceil, r.ipcp = ipcpCeilings(target)
	switch t := target.(type) {
	case *core.L1IPCP:
		r.l1 = t
		r.ora = newL1Oracle(t)
		if t.Config().UseRRFilter {
			r.rr = newRefRR()
		}
	case *core.L2IPCP:
		r.l2 = t
		r.ora = newL2Oracle(t)
	}
	r.ri.r = r
	return r
}

// vio reports one violation against this recorder's component.
func (r *recorder) vio(now int64, kind, detail string) {
	r.k.report(Violation{Cycle: now, Where: r.name, Kind: kind, Detail: detail})
}

// oracleVio reports a lockstep divergence and mutes the oracle once the
// cascade threshold is reached.
func (r *recorder) oracleVio(now int64, kind, detail string) {
	r.oracleVios++
	if r.oracleVios > oracleMuteAfter {
		return
	}
	r.vio(now, kind, detail)
	if r.oracleVios == oracleMuteAfter {
		r.oracleDead = true
		r.vio(now, "oracle-muted",
			fmt.Sprintf("reference comparison stopped after %d divergences (states have drifted)", oracleMuteAfter))
	}
}

// oracleLive reports whether the lockstep comparison is still valid: a
// tripped guard drops calls the oracle would still see, so the first
// trip permanently detaches the reference (the trip itself is reported
// through Result.PrefetcherFaults, not as an audit violation).
func (r *recorder) oracleLive() bool {
	if r.ora == nil || r.oracleDead {
		return false
	}
	if r.guard != nil {
		if tripped, _ := r.guard.Disabled(); tripped {
			r.oracleDead = true
			return false
		}
	}
	return true
}

// Name implements prefetch.Prefetcher.
func (r *recorder) Name() string { return r.inner.Name() }

// Unwrap implements prefetch.Wrapper so telemetry introspection pierces
// the recorder exactly as it pierces the Guard.
func (r *recorder) Unwrap() prefetch.Prefetcher { return r.inner }

// Operate implements prefetch.Prefetcher.
func (r *recorder) Operate(now int64, a *prefetch.Access, iss prefetch.Issuer) {
	r.now = now
	r.trigger = a.VAddr
	if r.trigger == 0 {
		r.trigger = a.Addr
	}
	r.curCands = r.curCands[:0]
	r.perClass = [memsys.NumClasses]int{}
	// Mirror the production RR-filter insertion of the triggering
	// demand block (it happens before any candidate is generated, so
	// the mirror must be updated before forwarding).
	if r.rr != nil && a.Type.IsDemand() && a.Type != memsys.CodeRead {
		r.rr.insert(r.trigger)
	}
	r.ri.inner = iss
	r.inner.Operate(now, a, &r.ri)

	if r.oracleLive() {
		m := opMatcher{r: r, now: now}
		r.ora.Operate(now, a, &m)
		m.finish()
	}
	if r.k.opt.RecordStreams {
		for _, c := range r.curCands {
			if c.accepted {
				r.stream = append(r.stream, issueRec{Cycle: now, Addr: c.addr, Class: c.class, Meta: c.meta})
			}
		}
	}
}

// Fill implements prefetch.Prefetcher: after the production prefetcher
// and the oracle have both seen the fill, the throttle state (degree,
// accuracy window) must agree — this is where a window that closed a
// fill early or late becomes visible.
func (r *recorder) Fill(now int64, f *prefetch.FillEvent) {
	r.inner.Fill(now, f)
	if r.oracleLive() {
		r.ora.Fill(now, f)
		r.ora.postFill(func(kind, detail string) { r.oracleVio(now, kind, detail) })
	}
}

// Cycle implements prefetch.Prefetcher; the NL gate is cross-checked
// every cycle (the compare is one boolean).
func (r *recorder) Cycle(now int64) {
	r.inner.Cycle(now)
	if r.oracleLive() {
		r.ora.Cycle(now)
		r.ora.postCycle(func(kind, detail string) { r.oracleVio(now, kind, detail) })
	}
}

// NextEvent implements prefetch.NextEventer by delegation; a recorder
// must never change the fast-forward schedule.
func (r *recorder) NextEvent(now int64) int64 {
	if r.innerNext != nil {
		return r.innerNext.NextEvent(now)
	}
	return now + 1
}

// SetTracer implements telemetry.Traceable by forwarding.
func (r *recorder) SetTracer(tr *telemetry.Tracer, core int) {
	if t, ok := r.inner.(telemetry.Traceable); ok {
		t.SetTracer(tr, core)
	}
}

// ResetStats implements telemetry.StatsResetter: the warmup boundary
// zeroes the production observation counters, so the oracle's mirror
// counters and the recorded stream reset with them.
func (r *recorder) ResetStats() {
	if rs, ok := r.inner.(telemetry.StatsResetter); ok {
		rs.ResetStats()
	}
	if r.ora != nil {
		r.ora.ResetStats()
	}
	r.stream = r.stream[:0]
}

// finish runs the end-of-run counter cross-checks.
func (r *recorder) finish() {
	if r.oracleLive() {
		r.ora.finishChecks(func(kind, detail string) { r.oracleVio(r.now, kind, detail) })
	}
}

// recIssuer sits between the wrapped prefetcher and the cache's real
// issuer: it checks the inline invariants on every candidate and
// records the (candidate, verdict) pairs the oracle later matches.
type recIssuer struct {
	r     *recorder
	inner prefetch.Issuer
}

// Issue implements prefetch.Issuer.
func (ri *recIssuer) Issue(c prefetch.Candidate) bool {
	r := ri.r
	// Invariant (§IV): an IPCP prefetch never crosses the page boundary
	// of its triggering access. Checked before forwarding so even a
	// rejected candidate is flagged.
	if r.ipcp && r.trigger != 0 && !memsys.SamePage(r.trigger, c.Addr) {
		r.vio(r.now, "page-cross",
			fmt.Sprintf("class %v candidate %#x crosses page of trigger %#x", c.Class, c.Addr, r.trigger))
	}
	// Invariant (§V): the RR filter must have dropped a candidate whose
	// tag is resident — seeing one here means the filter was bypassed.
	if r.rr != nil && r.rr.hit(c.Addr) {
		r.vio(r.now, "rr-readmit",
			fmt.Sprintf("class %v candidate %#x readmitted past a resident RR-filter tag", c.Class, c.Addr))
	}
	ok := ri.inner.Issue(c)
	r.curCands = append(r.curCands, candRec{addr: c.Addr, ip: c.IP, class: c.Class, meta: c.Meta, accepted: ok})
	if ok {
		if r.rr != nil {
			r.rr.insert(c.Addr)
		}
		// Invariant (§V): per class, one Operate never lands more
		// accepted prefetches than the class's degree ceiling (the
		// un-throttled default degree).
		if lim := r.ceil[c.Class]; r.ipcp && lim > 0 {
			r.perClass[c.Class]++
			if r.perClass[c.Class] > lim {
				r.vio(r.now, "degree-ceiling",
					fmt.Sprintf("class %v accepted %d candidates in one Operate, ceiling %d",
						c.Class, r.perClass[c.Class], lim))
			}
		}
	}
	return ok
}

// opMatcher is the lockstep cursor one oracle Operate call walks: the
// oracle calls expect for every candidate it would issue, in order, and
// receives the production verdict back (so filter/issued state on both
// sides stays synchronized even across rejections).
type opMatcher struct {
	r   *recorder
	now int64
	pos int
}

func (m *opMatcher) expect(addr, ip memsys.Addr, cls memsys.PrefetchClass, meta uint16) bool {
	r := m.r
	if m.pos >= len(r.curCands) {
		r.oracleVio(m.now, "missing-candidate",
			fmt.Sprintf("reference issues class %v %#x (ip %#x), implementation issued only %d candidate(s)",
				cls, addr, ip, len(r.curCands)))
		m.pos++
		return false
	}
	got := r.curCands[m.pos]
	m.pos++
	if got.addr != addr || got.class != cls || got.meta != meta || got.ip != ip {
		r.oracleVio(m.now, "stream-mismatch",
			fmt.Sprintf("candidate %d: implementation (%#x ip %#x class %v meta %#x) vs reference (%#x ip %#x class %v meta %#x)",
				m.pos-1, got.addr, got.ip, got.class, got.meta, addr, ip, cls, meta))
	}
	return got.accepted
}

// finish flags candidates the implementation issued beyond what the
// reference generated.
func (m *opMatcher) finish() {
	r := m.r
	if m.pos < len(r.curCands) {
		extra := r.curCands[m.pos]
		r.oracleVio(m.now, "extra-candidate",
			fmt.Sprintf("implementation issued %d candidate(s) beyond the reference stream, first %#x class %v",
				len(r.curCands)-m.pos, extra.addr, extra.class))
	}
}

// refRRFilter is the audit-side mirror of the paper's 32-entry
// recent-request filter (12-bit folded tags, FIFO replacement).
type refRRFilter struct {
	tags [32]uint16
	pos  int
}

func newRefRR() *refRRFilter {
	f := &refRRFilter{}
	for i := range f.tags {
		f.tags[i] = 0xffff
	}
	return f
}

func refRRTag(addr memsys.Addr) uint16 {
	b := memsys.BlockNumber(addr)
	return uint16((b ^ b>>12) & 0xfff)
}

func (f *refRRFilter) hit(addr memsys.Addr) bool {
	t := refRRTag(addr)
	for _, x := range &f.tags {
		if x == t {
			return true
		}
	}
	return false
}

func (f *refRRFilter) insert(addr memsys.Addr) {
	f.tags[f.pos] = refRRTag(addr)
	f.pos = (f.pos + 1) % len(f.tags)
}
