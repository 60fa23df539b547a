// Package dram models the main-memory controller: one or more DDR
// channels, each with banks, an open-row policy, FR-FCFS-style
// scheduling, and a hard data-bus bandwidth limit. Timing follows
// DDR4-1600 scaled to CPU cycles (4 GHz core, as in the paper's
// Table II).
package dram

import (
	"fmt"
	"math"

	"ipcp/internal/memsys"
)

// Config describes the memory system.
type Config struct {
	// Channels must be a power of two (1 for single-core, 2 for
	// multi-core in the paper).
	Channels int
	// BanksPerChannel must be a power of two.
	BanksPerChannel int
	// RowBytes is the row-buffer size per bank.
	RowBytes int

	// Timing in CPU cycles.
	TRP, TRCD, TCAS int
	// BurstCycles is the data-bus occupancy of one 64-byte transfer;
	// it sets the per-channel bandwidth ceiling:
	//   bandwidth = 64 B * cpuHz / BurstCycles.
	BurstCycles int

	// QueueSize bounds each channel's read and write queues.
	QueueSize int
}

// DefaultConfig returns the paper's DDR4-1600 single-channel
// configuration at a 4 GHz core clock: 12.8 GB/s per channel
// (64 B / 20 cycles / 4 GHz), tRP = tRCD = tCAS = 11 ns ≈ 44 cycles.
func DefaultConfig(channels int) Config {
	return Config{
		Channels:        channels,
		BanksPerChannel: 8,
		RowBytes:        8192,
		TRP:             44,
		TRCD:            44,
		TCAS:            44,
		BurstCycles:     20,
		QueueSize:       64,
	}
}

// WithBandwidthGBps returns a copy of c with BurstCycles set so each
// channel provides the given bandwidth at a 4 GHz core clock.
func (c Config) WithBandwidthGBps(gbps float64) Config {
	// cycles = 64 B * 4e9 cyc/s / (gbps * 1e9 B/s)
	cycles := int(64 * 4 / gbps)
	if cycles < 1 {
		cycles = 1
	}
	c.BurstCycles = cycles
	return c
}

// Stats aggregates controller counters.
type Stats struct {
	Reads, Writes                    uint64
	RowHits, RowMisses, RowConflicts uint64
	BusBusyCycles                    uint64
	Cycles                           uint64
	ReadQueueFullRejects             uint64
	WriteQueueFullRejects            uint64
}

// BytesTransferred returns total data moved.
func (s *Stats) BytesTransferred() uint64 { return (s.Reads + s.Writes) * memsys.BlockSize }

// BusUtilization returns the fraction of cycles the data bus was busy.
func (s *Stats) BusUtilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BusBusyCycles) / float64(s.Cycles)
}

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil int64
}

// pending is one queued request with its address decoded once, at
// arrival: pick, start and NextEvent all walk the queues, and none of
// them should re-derive (bank, row) per entry per cycle.
type pending struct {
	req     *memsys.Request
	born    int64
	row     uint64
	bank    int
	isWrite bool
}

type channel struct {
	banks     []bank
	readQ     []pending
	writeQ    []pending
	busFreeAt int64
	// drainWrites flips the scheduler into write-drain mode when the
	// write queue is nearly full or there are no reads.
	drainWrites bool
}

// Controller is the memory controller; it implements memsys.Sink and
// calls each completed read's ReturnTo.
type Controller struct {
	// Wake is the controller's wake time (see memsys.Wake): add marks it
	// due, the scheduler re-arms it from NextEvent.
	memsys.Wake

	cfg   Config
	chans []channel

	chanMask uint64
	bankMask uint64
	colBits  uint
	// nowApprox timestamps arrivals for the starvation cap: the last
	// cycle the controller was clocked or accounted as skipped.
	nowApprox int64
	// acct is the first cycle not yet clocked or accounted as skipped. A
	// controller a scheduler skips is not told: it settles [acct, now) in
	// closed form (AccountSkip) when it is next touched. Scheduler state,
	// like the wake time: it is in no ControllerState.
	acct int64
	// idle records that the last Cycle started no transaction.
	idle bool
	// pool recycles writeback requests once they are scheduled.
	pool  *memsys.RequestPool
	Stats Stats
}

// New validates cfg and returns a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Channels <= 0 || cfg.Channels&(cfg.Channels-1) != 0 {
		return nil, fmt.Errorf("dram: channels must be a positive power of two, got %d", cfg.Channels)
	}
	if cfg.BanksPerChannel <= 0 || cfg.BanksPerChannel&(cfg.BanksPerChannel-1) != 0 {
		return nil, fmt.Errorf("dram: banks must be a positive power of two, got %d", cfg.BanksPerChannel)
	}
	if cfg.RowBytes < memsys.BlockSize {
		return nil, fmt.Errorf("dram: row smaller than a block")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	c := &Controller{
		cfg:      cfg,
		chans:    make([]channel, cfg.Channels),
		chanMask: uint64(cfg.Channels - 1),
		bankMask: uint64(cfg.BanksPerChannel - 1),
	}
	blocksPerRow := cfg.RowBytes / memsys.BlockSize
	for 1<<c.colBits < blocksPerRow {
		c.colBits++
	}
	for i := range c.chans {
		c.chans[i].banks = make([]bank, cfg.BanksPerChannel)
		// Queues never exceed QueueSize; reserving it up front keeps the
		// steady state free of append growth.
		c.chans[i].readQ = make([]pending, 0, cfg.QueueSize)
		c.chans[i].writeQ = make([]pending, 0, cfg.QueueSize)
	}
	return c, nil
}

// SetRequestPool attaches the system-wide request free list (nil keeps
// plain allocation).
func (c *Controller) SetRequestPool(p *memsys.RequestPool) { c.pool = p }

// decode maps a physical block address onto (channel, bank, row).
// Layout from LSB: channel | column | bank | row, so consecutive
// blocks stripe across channels and consecutive rows across banks.
func (c *Controller) decode(addr memsys.Addr) (ch, bk int, row uint64) {
	bn := memsys.BlockNumber(addr)
	ch = int(bn & c.chanMask)
	bn >>= uint(trailingBits(c.chanMask))
	bn >>= c.colBits // column within row
	bk = int(bn & c.bankMask)
	row = bn >> uint(trailingBits(c.bankMask))
	return
}

func trailingBits(mask uint64) int {
	n := 0
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}

// --- memsys.Sink --------------------------------------------------------

// AddRead enqueues a demand or forwarded read.
func (c *Controller) AddRead(r *memsys.Request) bool { return c.add(r, false) }

// AddPrefetch enqueues a prefetch read (same queue; FR-FCFS decides).
func (c *Controller) AddPrefetch(r *memsys.Request) bool { return c.add(r, false) }

// AddWrite enqueues a writeback.
func (c *Controller) AddWrite(r *memsys.Request) bool { return c.add(r, true) }

func (c *Controller) add(r *memsys.Request, write bool) bool {
	// The controller's slot precedes its producers': a request arriving
	// in cycle now arrives after the controller's turn, so a controller
	// asleep on that cycle settles through it first — the reference
	// clocked cycle now on the queues as they were, and stamps the
	// arrival with it.
	if now, ok := c.Now(); ok {
		c.settleTo(now + 1)
	}
	ch, bk, row := c.decode(r.Addr)
	cn := &c.chans[ch]
	p := pending{req: r, born: c.nowApprox, row: row, bank: bk, isWrite: write}
	if write {
		if len(cn.writeQ) >= c.cfg.QueueSize {
			c.Stats.WriteQueueFullRejects++
			return false
		}
		cn.writeQ = append(cn.writeQ, p)
	} else {
		if len(cn.readQ) >= c.cfg.QueueSize {
			c.Stats.ReadQueueFullRejects++
			return false
		}
		cn.readQ = append(cn.readQ, p)
	}
	c.MarkDue()
	return true
}

// Cycle advances the controller one CPU cycle.
func (c *Controller) Cycle(now int64) {
	c.settleTo(now)
	c.acct = now + 1
	c.nowApprox = now
	c.Stats.Cycles++
	started := c.Stats.Reads + c.Stats.Writes
	busy := false
	for i := range c.chans {
		if c.cycleChannel(now, &c.chans[i]) {
			busy = true
		}
	}
	if busy {
		c.Stats.BusBusyCycles++
	}
	c.idle = c.Stats.Reads+c.Stats.Writes == started
}

// Idle reports whether the last Cycle started no transaction (the
// scheduler's self-profile counts such visits).
func (c *Controller) Idle() bool { return c.idle }

// Settle brings Stats and the drain mode up to the scheduler's clock:
// every cycle before it is accounted. Whoever reads Stats of a
// controller that a scheduler may have skipped calls it first; on a
// standalone controller it does nothing.
func (c *Controller) Settle() {
	if now, ok := c.Now(); ok {
		c.settleTo(now)
	}
}

// settleTo accounts the cycles [acct, upTo) the controller was not
// clocked on.
func (c *Controller) settleTo(upTo int64) {
	if c.acct < upTo {
		c.AccountSkip(c.acct, upTo)
	}
}

// drainMode is the write-drain policy: drain when writes pile past 3/4
// full, stop once below 1/4, otherwise keep the mode the channel is in.
// It is a pure function of the flag and the current write-queue length,
// so Cycle, NextEvent and AccountSkip all agree on it.
func (c *Controller) drainMode(cn *channel) bool {
	drain := cn.drainWrites
	if len(cn.writeQ) >= c.cfg.QueueSize*3/4 {
		drain = true
	}
	if len(cn.writeQ) <= c.cfg.QueueSize/4 {
		drain = false
	}
	return drain
}

// drawQueue returns the queue the scheduler draws from under the given
// drain mode (nil when there is nothing to draw): writes while
// draining, and opportunistically when no reads wait.
func (cn *channel) drawQueue(drain bool) *[]pending {
	if drain || (len(cn.readQ) == 0 && len(cn.writeQ) > 0) {
		return &cn.writeQ
	}
	if len(cn.readQ) > 0 {
		return &cn.readQ
	}
	return nil
}

// cycleChannel tries to start one transaction on the channel and
// reports whether its data bus is busy this cycle.
func (c *Controller) cycleChannel(now int64, cn *channel) bool {
	cn.drainWrites = c.drainMode(cn)

	// Commands pipeline ahead of the data bus: a new transaction may
	// start while the bus is still transferring, as long as the bus
	// backlog stays within two bursts (so row activations overlap
	// with data transfer, as in a real controller).
	if cn.busFreeAt-now < int64(2*c.cfg.BurstCycles) {
		if q := cn.drawQueue(cn.drainWrites); q != nil {
			if idx := c.pick(now, cn, *q); idx >= 0 {
				c.start(now, cn, q, idx)
			}
		}
	}
	return cn.busFreeAt > now
}

// pick implements FR-FCFS with a starvation cap: the oldest row-buffer
// hit on a ready bank wins, unless the oldest ready request has waited
// past the cap — row-missing random traffic must not starve behind an
// endless row-hit stream (real controllers bound reordering the same
// way).
func (c *Controller) pick(now int64, cn *channel, q []pending) int {
	const starvationCap = 1500 // cycles
	oldest, firstHit := -1, -1
	for i := range q {
		b := &cn.banks[q[i].bank]
		if b.busyUntil > now {
			continue
		}
		if firstHit < 0 && b.rowValid && b.openRow == q[i].row {
			firstHit = i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	if oldest >= 0 && now-q[oldest].born > starvationCap {
		return oldest
	}
	if firstHit >= 0 {
		return firstHit
	}
	return oldest
}

// start launches the transaction at q[idx] and removes it.
func (c *Controller) start(now int64, cn *channel, q *[]pending, idx int) {
	p := (*q)[idx]
	*q = append((*q)[:idx], (*q)[idx+1:]...)

	row := p.row
	b := &cn.banks[p.bank]
	// tCCD: successive column reads to an open row pipeline; the bank
	// only stays unavailable through precharge/activate.
	const tCCD = 8
	var access, bankBusy int64
	switch {
	case b.rowValid && b.openRow == row:
		access = int64(c.cfg.TCAS)
		bankBusy = tCCD
		c.Stats.RowHits++
	case !b.rowValid:
		access = int64(c.cfg.TRCD + c.cfg.TCAS)
		bankBusy = int64(c.cfg.TRCD) + tCCD
		c.Stats.RowMisses++
	default:
		access = int64(c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS)
		bankBusy = int64(c.cfg.TRP+c.cfg.TRCD) + tCCD
		c.Stats.RowConflicts++
	}
	b.openRow, b.rowValid = row, true

	dataStart := now + access
	if dataStart < cn.busFreeAt {
		dataStart = cn.busFreeAt
	}
	done := dataStart + int64(c.cfg.BurstCycles)
	b.busyUntil = now + bankBusy
	cn.busFreeAt = done

	if p.isWrite {
		c.Stats.Writes++
		c.pool.Put(p.req) // writebacks terminate here
		return
	}
	c.Stats.Reads++
	if p.req.ReturnTo != nil {
		p.req.ReturnTo.ReturnData(done, p.req)
	}
}

// NextEvent reports the earliest future cycle at which clocking the
// controller could change state, exactly: the first cycle some channel
// can start a transaction. A channel starts one when its bus backlog is
// under two bursts (from busFreeAt − 2·BurstCycles + 1 on) and a bank
// addressed by the queue it draws from is free (the earliest busyUntil
// among them); the starvation cap only changes which request pick
// returns, never when one is pickable. Until then Cycle only bumps the
// per-cycle counters and re-derives the drain mode, which AccountSkip
// replays. With nothing queued the controller is inert until add.
func (c *Controller) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	for i := range c.chans {
		cn := &c.chans[i]
		q := cn.drawQueue(c.drainMode(cn))
		if q == nil {
			continue
		}
		// floor is the earliest this channel could start anything.
		floor := cn.busFreeAt - int64(2*c.cfg.BurstCycles) + 1
		if floor <= now {
			floor = now + 1
		}
		t := int64(math.MaxInt64)
		for j := range *q {
			if b := cn.banks[(*q)[j].bank].busyUntil; b < t {
				t = b
				if t <= floor {
					break // the bus bound decides; no bank can improve on it
				}
			}
		}
		if t < floor {
			t = floor
		}
		if t < next {
			next = t
		}
	}
	return next
}

// AccountSkip replays the skipped cycles [from, to), during which
// NextEvent guarantees no transaction could start and nothing arrived:
// each clocked cycle would count Cycles, count BusBusyCycles while a
// transfer drains, settle the drain mode for the (unchanged) queue
// lengths, and stamp the arrival clock. The accounted-to cycle moves
// to to.
func (c *Controller) AccountSkip(from, to int64) {
	c.acct = to
	c.nowApprox = to - 1
	c.Stats.Cycles += uint64(to - from)
	var maxBusFree int64
	for i := range c.chans {
		cn := &c.chans[i]
		cn.drainWrites = c.drainMode(cn)
		if cn.busFreeAt > maxBusFree {
			maxBusFree = cn.busFreeAt
		}
	}
	if maxBusFree > from {
		end := maxBusFree
		if end > to {
			end = to
		}
		c.Stats.BusBusyCycles += uint64(end - from)
	}
}

// ResetStats zeroes the counters (end of warmup). Cycles the controller
// slept through before the boundary are settled first, so none is
// booked after it.
func (c *Controller) ResetStats() {
	c.Settle()
	c.Stats = Stats{}
}

// QueueOccupancy returns total queued reads and writes (testing).
func (c *Controller) QueueOccupancy() (reads, writes int) {
	for i := range c.chans {
		reads += len(c.chans[i].readQ)
		writes += len(c.chans[i].writeQ)
	}
	return
}
