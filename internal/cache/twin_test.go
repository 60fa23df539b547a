package cache

import (
	"math/rand"
	"reflect"
	"testing"

	_ "ipcp/internal/core" // registers "ipcp"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// The NextEvent contract, checked the way the scheduler relies on it: a
// cache clocked only when its wake time has come must be
// indistinguishable, after every single cycle, from one clocked every
// cycle — same counters (PrefetchMSHRStall once settled: a cache asleep
// behind a parked prefetch-queue head owes it for the span, and books it
// when next clocked or read), same occupancy, the same requests pushed
// down and the same (ready, request) returns handed up, at the same
// cycles.

// twinEvent is one call the cache made on a neighbour.
type twinEvent struct {
	at    int64  // cycle of the call
	kind  string // "read", "write", "pf" pushed down; "ret" returned up
	block uint64 // pushed block, or the returned request's tag
	ready int64  // returns only
	ok    bool   // pushes only: accepted
}

// twinLower stands in for the next level: a fixed-latency memory with a
// bounded number of reads in flight (so forwards bounce and retry) that
// periodically refuses writebacks (so dirty evictions block installs).
// It is clocked every cycle, before the cache, like a real lower level.
type twinLower struct {
	now     int64
	pend    []fill
	log     *[]twinEvent
	rejects int
}

const (
	twinLowerLatency  = 40
	twinLowerCapacity = 3
)

func (m *twinLower) push(kind string, r *memsys.Request, ok bool) bool {
	*m.log = append(*m.log, twinEvent{at: m.now, kind: kind, block: memsys.BlockNumber(r.Addr), ok: ok})
	if !ok {
		m.rejects++
	}
	return ok
}

func (m *twinLower) read(kind string, r *memsys.Request) bool {
	if len(m.pend) >= twinLowerCapacity {
		return m.push(kind, r, false)
	}
	m.pend = append(m.pend, fill{at: m.now + twinLowerLatency, req: r})
	return m.push(kind, r, true)
}

func (m *twinLower) AddRead(r *memsys.Request) bool     { return m.read("read", r) }
func (m *twinLower) AddPrefetch(r *memsys.Request) bool { return m.read("pf", r) }
func (m *twinLower) AddWrite(r *memsys.Request) bool {
	return m.push("write", r, (m.now/150)%3 != 0)
}

func (m *twinLower) Cycle(now int64) {
	m.now = now
	rest := m.pend[:0]
	for _, f := range m.pend {
		if f.at > now {
			rest = append(rest, f)
			continue
		}
		if f.req.ReturnTo == nil {
			continue // a prefetch passing through to fill a deeper level
		}
		// Odd blocks come back ready a few cycles in the future, even
		// ones ready now: both sides of the ReturnData lowering rule.
		f.req.ReturnTo.ReturnData(now+int64(memsys.BlockNumber(f.req.Addr)&1)*3, f.req)
	}
	m.pend = rest
}

// twinUpper stands in for the core: it records what comes back.
type twinUpper struct {
	now *int64
	log *[]twinEvent
}

func (u twinUpper) ReturnData(ready int64, r *memsys.Request) {
	*u.log = append(*u.log, twinEvent{at: *u.now, kind: "ret", block: uint64(r.Tag), ready: ready})
}

type cacheTwin struct {
	c     *Cache
	lower *twinLower
	upper twinUpper
	log   []twinEvent
}

func newCacheTwin(t *testing.T, cfg Config, pf string, now *int64) *cacheTwin {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &cacheTwin{c: c}
	w.lower = &twinLower{log: &w.log}
	w.upper = twinUpper{now: now, log: &w.log}
	c.SetLower(w.lower)
	if pf != "" {
		p, err := prefetch.New(pf, cfg.Level)
		if err != nil {
			t.Fatal(err)
		}
		c.SetPrefetcher(prefetch.NewGuard(p, cfg.Level)) // as sim.Build wires it
	}
	return w
}

// twinObs is what must agree after every cycle besides the event log.
type twinObs struct {
	Stats             Stats
	RQ, WQ, PQ, MSHR  int
	Fills             int
	RQBlocked, PfDead bool
}

func (w *cacheTwin) observe() twinObs {
	o := twinObs{Stats: w.c.Stats, Fills: w.c.fills.len(), RQBlocked: w.c.rqBlocked}
	o.RQ, o.WQ, o.PQ, o.MSHR = w.c.Occupancy()
	if g, ok := w.c.pf.(*prefetch.Guard); ok {
		o.PfDead, _ = g.Disabled()
	}
	return o
}

func TestGatedTwinMatchesEveryCycle(t *testing.T) {
	for _, pf := range []string{"", "ipcp", "tskid"} {
		pf := pf
		name := pf
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Name: "L1D", Level: memsys.LevelL1D,
				Sets: 16, Ways: 2, Latency: 4, Ports: 2,
				RQSize: 8, WQSize: 4, PQSize: 4, MSHRs: 4,
			}
			var now int64
			ref := newCacheTwin(t, cfg, pf, &now)
			gated := newCacheTwin(t, cfg, pf, &now)
			// gated's wake time lives in the scheduler's table, and clock is
			// the scheduler's: the cycle being stepped, and past it once the
			// cycle's visits are over.
			var wake, clock int64
			gated.c.Bind(&wake, &clock)
			rng := rand.New(rand.NewSource(7))

			tag := int64(0)
			inject := func(kind string, r memsys.Request) {
				tag++
				r.Tag = tag
				var ok [2]bool
				for i, w := range []*cacheTwin{ref, gated} {
					req := r // each twin owns its requests
					if req.Type == memsys.Load || req.Type == memsys.CodeRead {
						req.ReturnTo = w.upper
					}
					switch kind {
					case "read":
						ok[i] = w.c.AddRead(&req)
					case "write":
						ok[i] = w.c.AddWrite(&req)
					default:
						ok[i] = w.c.AddPrefetch(&req)
					}
				}
				if ok[0] != ok[1] {
					t.Fatalf("cycle %d: %s accepted ref=%v gated=%v", now, kind, ok[0], ok[1])
				}
			}

			checked, skipped, visited, sleptParked := 0, 0, 0, 0
			sawBlocked := false
			const cycles = 40_000
			for now = 0; now < cycles; now++ {
				clock = now
				ref.lower.Cycle(now)
				ref.c.Cycle(now)

				gated.lower.Cycle(now)
				if wake <= now {
					gated.c.Cycle(now)
					wake = gated.c.NextEvent(now)
					visited++
				} else {
					skipped++
					if gated.c.pqBlocked {
						sleptParked++
					}
				}
				clock = now + 1
				// A reader now and then, mid-span or not.
				if now%13 == 0 {
					gated.c.Settle()
				}

				g, r := gated.observe(), ref.observe()
				if gated.c.stallFrom != now+1 {
					// Asleep and not read: the stall span is still owed, and
					// everything else must agree meanwhile.
					g.Stats.PrefetchMSHRStall, r.Stats.PrefetchMSHRStall = 0, 0
				}
				if g != r {
					t.Fatalf("cycle %d: gated twin diverged\n got %+v\nwant %+v", now, g, r)
				}
				if g, r := gated.log[checked:], ref.log[checked:]; !reflect.DeepEqual(g, r) {
					t.Fatalf("cycle %d: gated twin's calls %+v, reference's %+v", now, g, r)
				}
				checked = len(ref.log)
				sawBlocked = sawBlocked || ref.c.rqBlocked

				// Traffic arrives after the cache's slot, as it does from
				// the level above: bursts over a footprint eight times the
				// cache, separated by silences longer than a miss.
				if now%1_000 >= 200 {
					continue
				}
				block := memsys.Addr(rng.Intn(256)) << memsys.BlockBits
				ip := memsys.Addr(0x400000 + 8*rng.Intn(6))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					// A strided walk per IP gives the prefetchers something
					// to train on.
					stride := memsys.Addr((now/3)%64) << memsys.BlockBits
					inject("read", memsys.Request{Addr: stride, VAddr: stride, IP: ip, Type: memsys.Load, Born: now})
				case 4:
					inject("read", memsys.Request{Addr: block, VAddr: block, IP: ip, Type: memsys.Load, Born: now})
				case 5:
					inject("read", memsys.Request{Addr: block, VAddr: block, IP: ip, Type: memsys.RFO, Born: now})
				case 6:
					inject("write", memsys.Request{Addr: block, Type: memsys.Writeback, Born: now})
				case 7:
					lvl := memsys.LevelL1D
					if rng.Intn(2) == 0 {
						lvl = memsys.LevelL2 // passing through to a deeper level
					}
					inject("pf", memsys.Request{Addr: block, Type: memsys.Prefetch, FillLevel: lvl,
						PfOrigin: memsys.LevelL1D, Born: now})
				}
			}

			st := ref.c.Stats
			if st.MSHRMerges == 0 || st.Writebacks == 0 || st.DemandMisses() == 0 || ref.lower.rejects == 0 || !sawBlocked {
				t.Errorf("traffic too thin: merges %d writebacks %d misses %d lower rejects %d blocked-head %v",
					st.MSHRMerges, st.Writebacks, st.DemandMisses(), ref.lower.rejects, sawBlocked)
			}
			if pf != "" && st.PrefetchIssued == 0 {
				t.Errorf("%s never issued a prefetch", pf)
			}
			if skipped < visited {
				t.Errorf("gated twin was clocked %d cycles and skipped only %d", visited, skipped)
			}
			if sleptParked < 100 || st.PrefetchMSHRStall < uint64(sleptParked) {
				t.Errorf("gated twin slept %d cycles behind a parked prefetch (%d stall cycles): the span settle is not exercised",
					sleptParked, st.PrefetchMSHRStall)
			}
			if rq, wq, pq, mshr := ref.c.Occupancy(); rq+wq+pq+mshr != 0 {
				t.Errorf("not drained at the end: rq=%d wq=%d pq=%d mshr=%d", rq, wq, pq, mshr)
			}
		})
	}
}
