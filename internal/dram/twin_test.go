package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"ipcp/internal/memsys"
)

// The NextEvent contract, checked the way the scheduler relies on it:
// a controller clocked only when its wake time has come — with the
// skipped cycles replayed by AccountSkip, one at a time or, as the
// scheduler leaves it to the controller, in whole spans settled on
// touch — must be indistinguishable, after every single cycle, from one
// clocked every cycle.

// twinReturn is one completed read as the receiver saw it.
type twinReturn struct {
	ready int64
	tag   int64
}

type twinSink struct{ got []twinReturn }

func (s *twinSink) ReturnData(ready int64, r *memsys.Request) {
	s.got = append(s.got, twinReturn{ready, r.Tag})
}

// twin is one controller under test with its own receiver.
type twin struct {
	c    *Controller
	sink twinSink
}

func newTwin(t *testing.T, cfg Config) *twin {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &twin{c: c}
}

func (w *twin) add(addr memsys.Addr, tag int64, write bool) bool {
	if write {
		return w.c.AddWrite(&memsys.Request{Addr: addr, Type: memsys.Writeback, Tag: tag})
	}
	return w.c.AddRead(&memsys.Request{Addr: addr, Type: memsys.Load, Tag: tag, ReturnTo: &w.sink})
}

// state is everything a controller's future behaviour depends on, with
// queued requests reduced to their tags.
type twinState struct {
	Stats     Stats
	NowApprox int64
	Chans     []twinChan
}

type twinChan struct {
	Banks       []bank
	BusFreeAt   int64
	DrainWrites bool
	ReadQ       []twinPending
	WriteQ      []twinPending
}

type twinPending struct {
	tag, born int64
	bank      int
	row       uint64
}

func (w *twin) state() twinState {
	s := twinState{Stats: w.c.Stats, NowApprox: w.c.nowApprox}
	for i := range w.c.chans {
		cn := &w.c.chans[i]
		tc := twinChan{Banks: append([]bank(nil), cn.banks...), BusFreeAt: cn.busFreeAt, DrainWrites: cn.drainWrites}
		for _, p := range cn.readQ {
			tc.ReadQ = append(tc.ReadQ, twinPending{p.req.Tag, p.born, p.bank, p.row})
		}
		for _, p := range cn.writeQ {
			tc.WriteQ = append(tc.WriteQ, twinPending{p.req.Tag, p.born, p.bank, p.row})
		}
		s.Chans = append(s.Chans, tc)
	}
	return s
}

func TestGatedTwinMatchesEveryCycle(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.QueueSize = 16 // drain on at 12 queued writes, off at 4
	const starvationCap = 1500

	ref := newTwin(t, cfg)   // clocked every cycle
	gated := newTwin(t, cfg) // clocked when due, else AccountSkip over the one cycle
	// lazy is the scheduler's controller: clocked when due and otherwise
	// left alone, it settles each span it slept through itself, on the
	// next Cycle or add. clock is the scheduler's: the cycle being stepped
	// (traffic arrives during it, after the controller's slot), and past
	// it once the cycle is over.
	lazy := newTwin(t, cfg)
	var lazyWake, clock int64
	lazy.c.Bind(&lazyWake, &clock)

	rng := rand.New(rand.NewSource(42))
	rowStride := memsys.Addr(cfg.RowBytes * cfg.BanksPerChannel * cfg.Channels)
	bankStride := memsys.Addr(cfg.RowBytes * cfg.Channels)
	// addr builds an address on channel 0 or, for odd columns, 1.
	addr := func(bank, row, col int) memsys.Addr {
		return memsys.Addr(row)*rowStride + memsys.Addr(bank)*bankStride +
			memsys.Addr(col/2*cfg.Channels*memsys.BlockSize) + memsys.Addr(col%2*memsys.BlockSize)
	}

	// What the traffic must have provoked in the reference by the end.
	var sawDrainOn, sawDrainOff, sawBusGate, sawBankSplit, sawStarved bool
	skipped, visited, spans, lateArrivals := 0, 0, 0, 0
	tag := int64(0)

	inject := func(now int64, a memsys.Addr, write bool) {
		tag++
		// An arrival in a cycle lazy slept through: add must settle
		// through that cycle, not up to it (add stamps born from the
		// arrival clock, which AccountSkip advances).
		if lazy.c.acct <= now {
			lateArrivals++
		}
		r, g, l := ref.add(a, tag, write), gated.add(a, tag, write), lazy.add(a, tag, write)
		if r != g || r != l {
			t.Fatalf("cycle %d: add accepted ref=%v gated=%v lazy=%v", now, r, g, l)
		}
		if lazy.c.acct != now+1 {
			t.Fatalf("cycle %d: lazy twin accounted to %d after an arrival", now, lazy.c.acct)
		}
	}

	const cycles = 60_000
	hitCol, checked := 0, 0
	for now := int64(0); now < cycles; now++ {
		clock = now
		ref.c.Cycle(now)

		if gated.c.WakeAt() <= now {
			gated.c.Cycle(now)
			gated.c.ArmWake(gated.c.NextEvent(now))
			visited++
		} else {
			gated.c.AccountSkip(now, now+1)
			skipped++
		}
		if lazyWake <= now {
			if lazy.c.acct < now-1 {
				spans++
			}
			lazy.c.Cycle(now)
			lazyWake = lazy.c.NextEvent(now)
		}

		want := ref.state()
		if got := gated.state(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: gated twin diverged\n got %+v\nwant %+v", now, got, want)
		}
		if g, r := gated.sink.got[checked:], ref.sink.got[checked:]; !reflect.DeepEqual(g, r) {
			t.Fatalf("cycle %d: gated twin returned %v, reference %v", now, g, r)
		}
		if lazy.c.acct == now+1 { // lazy is settled: comparable
			if got := lazy.state(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: lazy twin diverged\n got %+v\nwant %+v", now, got, want)
			}
		}
		if g, r := lazy.sink.got[checked:], ref.sink.got[checked:]; !reflect.DeepEqual(g, r) {
			t.Fatalf("cycle %d: lazy twin returned %v, reference %v", now, g, r)
		}
		checked = len(ref.sink.got) // the (ready, request) sequences agree so far

		// Coverage, read off the reference.
		for i := range ref.c.chans {
			cn := &ref.c.chans[i]
			if cn.drainWrites {
				sawDrainOn = true
			} else if sawDrainOn && len(cn.writeQ) > 0 {
				sawDrainOff = true
			}
			queued := len(cn.readQ) + len(cn.writeQ)
			if queued > 0 && cn.busFreeAt-now >= int64(2*cfg.BurstCycles) {
				sawBusGate = true
			}
			busy, free := false, false
			for _, p := range cn.readQ {
				if cn.banks[p.bank].busyUntil > now {
					busy = true
				} else {
					free = true
				}
				if now-p.born > starvationCap {
					sawStarved = true
				}
			}
			if busy && free {
				sawBankSplit = true
			}
		}

		// Traffic arrives after the controller's slot, as it does from
		// the LLC. Phases repeat every 12,000 cycles.
		switch phase := now % 12_000; {
		case phase < 2_000:
			// Random reads over a few banks and rows on both channels:
			// row conflicts keep some banks busy while others are ready.
			if rng.Intn(40) == 0 {
				inject(now, addr(rng.Intn(4), rng.Intn(3), rng.Intn(16)), false)
			}
		case phase < 3_000:
			// Quiet: queues drain, the controller sleeps for long spans.
		case phase < 5_200:
			// A victim in another row of bank 0, then a row-hit stream to
			// bank 0 a little faster than the bus can carry: the backlog
			// holds two bursts behind, the read queue overflows, and the
			// victim ages past the cap.
			if phase == 3_000 {
				inject(now, addr(0, 0, 0), false)
			}
			if phase == 3_100 {
				inject(now, addr(0, 7, 0), false)
			}
			if phase > 3_100 && phase%15 == 0 {
				hitCol++
				inject(now, addr(0, 0, 2*(hitCol%64)), false)
			}
		case phase < 6_000:
			// Quiet.
		case phase < 9_000:
			// A burst of writes every 1,000 cycles against a read trickle:
			// the write queue climbs past 3/4, drain mode takes over, and
			// it falls back below 1/4 once the burst is absorbed.
			if phase%1_000 < 20 {
				inject(now, addr(rng.Intn(8), 20+rng.Intn(2), 2*rng.Intn(64)), true)
			}
			if phase%100 == 50 {
				inject(now, addr(rng.Intn(8), rng.Intn(2), 2*rng.Intn(8)), false)
			}
		}
		// 9,000 on: quiet.

		clock = now + 1
		// A reader now and then, mid-span or not.
		if now%997 == 0 {
			lazy.c.Settle()
		}
	}
	lazy.c.Settle()
	if got, want := lazy.state(), ref.state(); !reflect.DeepEqual(got, want) {
		t.Fatalf("end: lazy twin diverged\n got %+v\nwant %+v", got, want)
	}

	for name, saw := range map[string]bool{
		"write drain switched on":           sawDrainOn,
		"write drain switched back off":     sawDrainOff,
		"bus held two bursts behind":        sawBusGate,
		"one bank busy while another ready": sawBankSplit,
		"a request aged past the cap":       sawStarved,
	} {
		if !saw {
			t.Errorf("traffic never provoked: %s", name)
		}
	}
	if ref.c.Stats.Reads == 0 || ref.c.Stats.Writes == 0 || ref.c.Stats.RowConflicts == 0 {
		t.Errorf("traffic too thin: %+v", ref.c.Stats)
	}
	if skipped < 4*visited {
		t.Errorf("gated twin was clocked %d cycles and skipped only %d: NextEvent is not sleeping through timings", visited, skipped)
	}
	if spans < 100 || lateArrivals < 100 {
		t.Errorf("lazy twin settled only %d multi-cycle spans and took %d arrivals asleep", spans, lateArrivals)
	}
	if r, w := ref.c.QueueOccupancy(); r+w != 0 {
		t.Errorf("queues not drained at the end: %d reads, %d writes", r, w)
	}
}
