package cpu

import (
	"reflect"
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/vmem"
	"ipcp/internal/workload"
)

// The NextEvent contract, checked the way the scheduler relies on it: a
// core clocked only when its wake time has come — with the skipped
// cycles replayed by AccountSkip, one at a time or, as the scheduler
// leaves it to the core, in whole spans settled on touch — must be
// indistinguishable, after every single cycle, from one clocked every
// cycle: same counters, same ROB and load-queue occupancy, the same
// requests sent to the L1s at the same cycles.

// twinIssue is one request the core pushed to an L1.
type twinIssue struct {
	at   int64
	typ  memsys.AccessType
	addr memsys.Addr
	tag  int64
	ok   bool
}

// twinL1 stands in for both L1s: it answers reads after a latency that
// depends on the block (most hit, some miss far), takes only a few
// requests at a time (so the load-queue head bounces and must be
// retried), and hands data back ready either now or two cycles out. It
// is clocked every cycle, before the core, like a real L1.
type twinL1 struct {
	now     int64
	pend    []fakeFill
	log     []twinIssue
	rejects int
}

const twinL1Capacity = 6

func (m *twinL1) AddRead(r *memsys.Request) bool {
	ok := len(m.pend) < twinL1Capacity
	m.log = append(m.log, twinIssue{m.now, r.Type, r.Addr, r.Tag, ok})
	if !ok {
		m.rejects++
		return false
	}
	lat := int64(4)
	if blk := memsys.BlockNumber(r.Addr); blk%7 == 0 {
		lat = 180
	} else if blk%3 == 0 {
		lat = 30
	}
	m.pend = append(m.pend, fakeFill{at: m.now + lat, req: r})
	return true
}

func (m *twinL1) AddWrite(*memsys.Request) bool    { return true }
func (m *twinL1) AddPrefetch(*memsys.Request) bool { return true }

func (m *twinL1) Cycle(now int64) {
	m.now = now
	rest := m.pend[:0]
	for _, f := range m.pend {
		if f.at > now {
			rest = append(rest, f)
			continue
		}
		if f.req.ReturnTo == nil {
			continue // a store's RFO ends at the cache
		}
		f.req.ReturnTo.ReturnData(now+int64(f.req.Tag&1)*2, f.req)
	}
	m.pend = rest
}

type coreTwin struct {
	c  *Core
	l1 *twinL1
}

func newCoreTwin(t *testing.T, name string, robSize int) *coreTwin {
	t.Helper()
	spec, err := workload.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ROBSize = robSize
	c, err := New(0, cfg, spec.New(3), vmem.NewPhysAllocator(1))
	if err != nil {
		t.Fatal(err)
	}
	w := &coreTwin{c: c, l1: &twinL1{}}
	c.Attach(w.l1, w.l1)
	return w
}

// twinCoreObs is what must agree after every cycle besides the issue log.
type twinCoreObs struct {
	Stats           Stats
	ROB, LoadQ      int
	FetchStallUntil int64
	CodeSeq         int64
}

func (w *coreTwin) observe() twinCoreObs {
	return twinCoreObs{w.c.Stats, w.c.robCount, w.c.loadQ.size, w.c.fetchStallUntil, w.c.codeSeq}
}

func TestGatedTwinMatchesEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		rob            int
	}{
		{"mcf-994", "mcf-994", 256}, {"lbm-94", "lbm-94", 256}, {"omnetpp-17", "omnetpp-17", 256},
		{"mcf-994-rob192", "mcf-994", 192}, // not a power of two: robSlot's remainder path
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := newCoreTwin(t, tc.workload, tc.rob)   // clocked every cycle
			gated := newCoreTwin(t, tc.workload, tc.rob) // clocked when due, else AccountSkip over the one cycle
			// lazy is the scheduler's core: clocked when due and otherwise
			// left alone, it settles each span it slept through itself, on
			// the next Cycle, ReturnData or fetch-gate flip. clock is the
			// scheduler's: the cycle being stepped, and past it once the
			// cycle's visits are over.
			lazy := newCoreTwin(t, tc.workload, tc.rob)
			var lazyWake, clock int64
			lazy.c.Bind(&lazyWake, &clock)

			checked, skipped, visited, spans, reads := 0, 0, 0, 0, 0
			const cycles = 60_000
			for now := int64(0); now < cycles; now++ {
				clock = now
				// The fetch gate, as a snapshot drain drives it.
				switch now {
				case 30_000:
					ref.c.StopFetch()
					gated.c.StopFetch()
					lazy.c.StopFetch()
				case 31_000:
					ref.c.ResumeFetch()
					gated.c.ResumeFetch()
					lazy.c.ResumeFetch()
				}

				ref.l1.Cycle(now)
				ref.c.Cycle(now)

				gated.l1.Cycle(now)
				if gated.c.WakeAt() <= now {
					gated.c.Cycle(now)
					gated.c.ArmWake(gated.c.NextEvent(now))
					visited++
				} else {
					gated.c.AccountSkip(now, now+1)
					skipped++
				}

				lazy.l1.Cycle(now)
				if lazyWake <= now {
					if lazy.c.acct < now-1 {
						spans++
					}
					lazy.c.Cycle(now)
					lazyWake = lazy.c.NextEvent(now)
				}
				clock = now + 1
				// A reader now and then, mid-span or not.
				if now%997 == 0 {
					lazy.c.Settle()
					reads++
				}

				want := ref.observe()
				if got := gated.observe(); got != want {
					t.Fatalf("cycle %d: gated twin diverged\n got %+v\nwant %+v", now, got, want)
				}
				if g, r := gated.l1.log[checked:], ref.l1.log[checked:]; !reflect.DeepEqual(g, r) {
					t.Fatalf("cycle %d: gated twin issued %+v, reference %+v", now, g, r)
				}
				if lazy.c.acct == now+1 { // lazy is settled: comparable
					if got := lazy.observe(); got != want {
						t.Fatalf("cycle %d: lazy twin diverged\n got %+v\nwant %+v", now, got, want)
					}
				}
				if g, r := lazy.l1.log[checked:], ref.l1.log[checked:]; !reflect.DeepEqual(g, r) {
					t.Fatalf("cycle %d: lazy twin issued %+v, reference %+v", now, g, r)
				}
				checked = len(ref.l1.log)
			}
			lazy.c.Settle()
			if got, want := lazy.observe(), ref.observe(); got != want {
				t.Fatalf("end: lazy twin diverged\n got %+v\nwant %+v", got, want)
			}

			st := ref.c.Stats
			if st.Retired == 0 || st.Loads == 0 || st.ROBFullCycles == 0 || st.FetchStallCycles == 0 || ref.l1.rejects == 0 {
				t.Errorf("run too thin: %+v, %d bounced issues", st, ref.l1.rejects)
			}
			if skipped < visited/4 {
				t.Errorf("gated twin was clocked %d cycles and skipped only %d", visited, skipped)
			}
			if spans < 100 {
				t.Errorf("lazy twin settled only %d multi-cycle spans (%d reader settles)", spans, reads)
			}
		})
	}
}
