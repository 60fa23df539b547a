// Package cpu models a trace-driven out-of-order core: a 4-wide
// front-end with a bimodal branch predictor and an L1-I, a 256-entry
// reorder buffer, non-blocking loads issued to the L1-D, and in-order
// retirement. The model captures what matters for prefetching studies —
// ROB-limited memory-level parallelism and retirement stalls on cache
// misses — without register renaming or functional execution.
package cpu

import (
	"fmt"
	"math"

	"ipcp/internal/memsys"
	"ipcp/internal/trace"
	"ipcp/internal/vmem"
)

// Config describes the core.
type Config struct {
	Width             int // dispatch/retire width per cycle
	ROBSize           int
	MispredictPenalty int // redirect cycles after a mispredicted branch
	// L1IHitLatency is the expected instruction-fetch hit latency;
	// code reads taking longer stall the front-end.
	L1IHitLatency int
	// LoadPortsPerCycle bounds loads sent to the L1-D per cycle.
	LoadPortsPerCycle int
}

// DefaultConfig matches the paper's Table II core.
func DefaultConfig() Config {
	return Config{
		Width:             4,
		ROBSize:           256,
		MispredictPenalty: 12,
		L1IHitLatency:     3,
		LoadPortsPerCycle: 2,
	}
}

// Stats aggregates core counters.
type Stats struct {
	Retired          uint64
	Cycles           uint64
	Loads            uint64
	Stores           uint64
	Branches         uint64
	Mispredicts      uint64
	FetchStallCycles uint64
	ROBFullCycles    uint64
	// DepBlocked counts load-issue attempts deferred by an address
	// dependency.
	DepBlocked uint64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// robEntry is one in-flight instruction.
type robEntry struct {
	seq          int64
	doneAt       int64
	pendingLoads int
	valid        bool
}

// pendingLoad is a load waiting for TLB latency, its address
// dependency, and an L1-D queue slot.
type pendingLoad struct {
	seq     int64
	vaddr   memsys.Addr
	paddr   memsys.Addr
	ipVal   memsys.Addr
	readyAt int64 // after address translation
	// depSeq, when non-zero, is the sequence number of the load whose
	// data this load's address depends on; issue waits for it.
	depSeq int64
	// isStore marks an RFO from the store buffer: it issues in order
	// with the loads but does not block retirement.
	isStore bool
}

// loadRing is a growable FIFO of pending loads. It replaces the old
// loadQ slice, whose head-slide (loadQ = loadQ[1:]) forced a fresh
// backing array every drain cycle; the ring reuses one buffer for the
// life of the core.
type loadRing struct {
	buf  []pendingLoad // len(buf) is a power of two (or 0 before first push)
	head int
	size int
}

// push appends an entry and returns it for the caller to fill in place.
// The slot holds whatever was popped from it last: every field must be
// written.
func (q *loadRing) push() *pendingLoad {
	if q.size == len(q.buf) {
		q.grow()
	}
	pl := &q.buf[(q.head+q.size)&(len(q.buf)-1)]
	q.size++
	return pl
}

func (q *loadRing) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 16
	}
	next := make([]pendingLoad, n)
	for i := 0; i < q.size; i++ {
		next[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = next
	q.head = 0
}

// front returns the oldest entry; only valid when size > 0.
func (q *loadRing) front() *pendingLoad { return &q.buf[q.head] }

func (q *loadRing) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
}

// Core is one simulated CPU.
type Core struct {
	// Wake is the core's wake time (see memsys.Wake): data returned by
	// the L1s lowers it to the data's ready cycle, the fetch gate marks
	// it due, and the scheduler re-arms it from NextEvent.
	memsys.Wake

	// acct is the first cycle whose per-cycle counters (Stats.Cycles and
	// the stall counters) are not in Stats yet. A core a scheduler skips
	// is not told: it settles [acct, now) in closed form (AccountSkip)
	// when it is next touched — before anything that changes what the
	// closed form reads, and before anyone reads the counters. A core
	// clocked every cycle always finds the span empty. Scheduler state,
	// like the wake time: it is in no State.
	acct int64

	ID  int
	cfg Config

	stream trace.Stream
	l1d    memsys.Sink
	l1i    memsys.Sink
	tlb    *vmem.Hierarchy
	pt     *vmem.PageTable

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int
	seq      int64
	// robMask is len(rob)-1 when that is a power of two above one (see
	// robSlot), else 0.
	robMask uint64

	loadQ       loadRing
	lastLoadSeq int64

	bp bimodal

	fetchStallUntil int64
	lastFetchBlock  uint64
	codeSeq         int64 // in-flight code read tag (-1 none)
	codeIssuedAt    int64
	seqCode         int64

	streamEnded bool
	// fetchStopped gates dispatch during snapshot drain: the front-end
	// stops feeding the ROB so in-flight work can retire to quiescence.
	fetchStopped bool

	// idle records that the last Cycle changed nothing (see Idle).
	idle bool

	// instr is the dispatch decode buffer: passing a stack variable's
	// address through the trace.Stream interface would heap-allocate one
	// Instr per dispatched instruction. Streams reset or fully overwrite
	// it in Next.
	instr trace.Instr

	// pool recycles Requests (nil: allocate per request).
	pool *memsys.RequestPool

	Stats Stats
}

// New constructs a core reading from stream, with its own page table
// drawn from alloc. The L1 sinks are attached with Attach.
func New(id int, cfg Config, stream trace.Stream, alloc *vmem.PhysAllocator) (*Core, error) {
	if cfg.Width <= 0 || cfg.ROBSize <= 0 {
		return nil, fmt.Errorf("cpu: width and ROB size must be positive")
	}
	if cfg.LoadPortsPerCycle <= 0 {
		cfg.LoadPortsPerCycle = 1
	}
	c := &Core{
		ID:      id,
		cfg:     cfg,
		stream:  stream,
		tlb:     vmem.NewHierarchy(),
		pt:      vmem.NewPageTable(alloc),
		rob:     make([]robEntry, cfg.ROBSize),
		bp:      newBimodal(12),
		codeSeq: -1,
	}
	if n := cfg.ROBSize; n&(n-1) == 0 {
		c.robMask = uint64(n - 1)
	}
	return c, nil
}

// Attach wires the core to its L1 caches.
func (c *Core) Attach(l1d, l1i memsys.Sink) {
	c.l1d = l1d
	c.l1i = l1i
}

// Sinks returns the L1 caches the core is attached to.
func (c *Core) Sinks() (l1d, l1i memsys.Sink) { return c.l1d, c.l1i }

// SetRequestPool attaches the system-wide request free list.
func (c *Core) SetRequestPool(p *memsys.RequestPool) { c.pool = p }

// PageTable exposes the core's address space (the L1-D prefetcher's
// translator uses it).
func (c *Core) PageTable() *vmem.PageTable { return c.pt }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.Stats.Retired }

// ResetStats zeroes the counters (end of warmup). Cycles the core slept
// through before the boundary are settled first, so none is booked
// after it.
func (c *Core) ResetStats() {
	c.Settle()
	c.Stats = Stats{}
}

// Settle brings Stats up to the scheduler's clock: every cycle before
// it is accounted. Whoever reads Stats of a core that a scheduler may
// have skipped calls it first; on a standalone core it does nothing.
func (c *Core) Settle() {
	if now, ok := c.Now(); ok {
		c.settleTo(now)
	}
}

// settleTo accounts the cycles [acct, upTo) the core was not clocked on.
func (c *Core) settleTo(upTo int64) {
	if c.acct < upTo {
		c.AccountSkip(c.acct, upTo)
	}
}

// Done reports whether a finite trace has been fully consumed and
// drained.
func (c *Core) Done() bool { return c.streamEnded && c.robCount == 0 }

// ReturnData implements memsys.Receiver: load data and code reads
// coming back from the L1s. The core created these requests, so it
// recycles them here — the caller must not touch r afterwards.
func (c *Core) ReturnData(ready int64, r *memsys.Request) {
	// The cycles slept through so far saw the core as it was before this
	// return. The current one sees it after, as the reference core does:
	// its L1s are clocked before it.
	c.Settle()
	c.returnData(ready, r)
	c.pool.Put(r)
	// Nothing the return enables (retiring the entry, resolving a
	// dependent load's address, ending a fetch stall) can happen before
	// the data is ready.
	c.LowerWake(ready)
}

func (c *Core) returnData(ready int64, r *memsys.Request) {
	if r.Type == memsys.CodeRead {
		if r.Tag == c.codeSeq {
			c.codeSeq = -1
			// Stall the front-end only for the portion beyond a
			// pipelined hit.
			if ready-c.codeIssuedAt > int64(c.cfg.L1IHitLatency)+1 {
				if ready > c.fetchStallUntil {
					c.fetchStallUntil = ready
				}
			}
		}
		return
	}
	e := c.robSlot(r.Tag)
	if !e.valid || e.seq != r.Tag {
		return // already retired (should not happen for loads)
	}
	e.pendingLoads--
	if ready > e.doneAt {
		e.doneAt = ready
	}
}

// Cycle advances the core one cycle: retire, issue pending loads,
// dispatch.
func (c *Core) Cycle(now int64) {
	c.settleTo(now)
	c.acct = now + 1
	c.Stats.Cycles++
	retired, seq, queued := c.Stats.Retired, c.seq, c.loadQ.size
	c.retire(now)
	c.issueLoads(now)
	c.dispatch(now)
	c.idle = c.Stats.Retired == retired && c.seq == seq && c.loadQ.size == queued
}

// Idle reports whether the last Cycle changed nothing: no instruction
// retired or dispatched, no load issued (the scheduler's self-profile
// counts such visits).
func (c *Core) Idle() bool { return c.idle }

// robSlot locates the ROB entry of sequence number seq. Sequence
// numbers start at 1 and advance in lockstep with the tail, so seq s
// always lives in slot (s-1) mod size — a mask for a power-of-two ROB,
// else an unsigned remainder (the signed one is several times dearer,
// and depResolved runs on every load-issue attempt).
func (c *Core) robSlot(seq int64) *robEntry {
	i := uint64(seq - 1)
	if c.robMask != 0 {
		return &c.rob[i&c.robMask]
	}
	return &c.rob[i%uint64(len(c.rob))]
}

// NextEvent reports the earliest future cycle at which clocking the
// core could change architectural state. Between now and the returned
// cycle, every Cycle call would only bump the per-cycle stall counters,
// whose per-cycle behaviour is constant across the span — AccountSkip
// replays them in closed form. math.MaxInt64 means the core is inert
// until an external data return arrives (ReturnData lowers the wake
// time itself).
func (c *Core) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)

	// Retirement: the head entry completes at doneAt (pending loads are
	// finalized by ReturnData during clocked cycles only).
	if c.robCount > 0 {
		e := &c.rob[c.robHead]
		if e.pendingLoads == 0 {
			if e.doneAt <= now {
				return now + 1
			}
			if e.doneAt < next {
				next = e.doneAt
			}
		}
	}

	// Load issue: the queue head waits for translation (readyAt) or for
	// its address dependency (the dep entry's doneAt); after that it is
	// tried every cycle — a head that bounced off a full L1-D read queue
	// keeps the core due, because nothing tells the core when a slot
	// frees up.
	if c.loadQ.size > 0 {
		pl := c.loadQ.front()
		if pl.depSeq != 0 && !c.depResolved(now, pl.depSeq) {
			de := c.robSlot(pl.depSeq)
			if de.pendingLoads == 0 && de.doneAt > now && de.doneAt < next {
				next = de.doneAt
			}
		} else if pl.readyAt > now {
			if pl.readyAt < next {
				next = pl.readyAt
			}
		} else {
			return now + 1
		}
	}

	// Dispatch: a pending fetch stall is always a breakpoint (the
	// FetchStall→ROBFull accounting switch happens there); otherwise an
	// unstalled core with ROB space and a live stream dispatches next
	// cycle.
	if c.fetchStallUntil > now {
		if c.fetchStallUntil < next {
			next = c.fetchStallUntil
		}
	} else if !c.streamEnded && !c.fetchStopped && c.robCount < len(c.rob) {
		return now + 1
	}

	return next
}

// AccountSkip replays the per-cycle statistics for the skipped cycles
// [from, to) and moves the accounted-to cycle to to. NextEvent's
// breakpoints guarantee each condition below is constant across the
// span, so the closed form equals clocking every cycle.
func (c *Core) AccountSkip(from, to int64) {
	c.acct = to
	d := uint64(to - from)
	c.Stats.Cycles += d
	if c.loadQ.size > 0 {
		pl := c.loadQ.front()
		if pl.depSeq != 0 && !c.depResolved(from, pl.depSeq) {
			c.Stats.DepBlocked += d
		}
	}
	if c.fetchStopped {
		return // dispatch is gated: no front-end stall accounting
	}
	if from < c.fetchStallUntil {
		c.Stats.FetchStallCycles += d
	} else if c.robCount == len(c.rob) {
		c.Stats.ROBFullCycles += d
	}
}

func (c *Core) retire(now int64) {
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.pendingLoads > 0 || e.doneAt > now {
			return
		}
		e.valid = false
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		c.Stats.Retired++
	}
}

// depResolved reports whether the load with sequence number dep has
// produced its data (or already retired).
func (c *Core) depResolved(now, dep int64) bool {
	if dep == 0 {
		return true
	}
	e := c.robSlot(dep)
	if !e.valid || e.seq != dep {
		return true // retired
	}
	return e.pendingLoads == 0 && e.doneAt <= now
}

// issueLoads sends memory operations to the L1-D strictly in program
// order (an in-order address-generation model): a load blocked on an
// address dependency blocks younger memory operations too. This keeps
// each instruction pointer's access sequence in order — what per-IP
// classifiers see on real hardware — and makes dependent chains
// expose memory latency exactly as pointer chases do.
func (c *Core) issueLoads(now int64) {
	budget := c.cfg.LoadPortsPerCycle
	for budget > 0 && c.loadQ.size > 0 {
		pl := c.loadQ.front()
		if pl.depSeq != 0 && !c.depResolved(now, pl.depSeq) {
			c.Stats.DepBlocked++
			return
		}
		if pl.readyAt > now {
			return
		}
		r := c.pool.Get() // stale: every field written (see memsys.RequestPool)
		r.Addr = pl.paddr
		r.VAddr = pl.vaddr
		r.IP = pl.ipVal
		if pl.isStore {
			r.Type, r.ReturnTo = memsys.RFO, nil
		} else {
			r.Type, r.ReturnTo = memsys.Load, c
		}
		r.CoreID = c.ID
		r.FillLevel = 0
		r.PfClass, r.PfMeta, r.PfOrigin = 0, 0, 0
		r.Tag = pl.seq
		r.Born = now
		if !c.l1d.AddRead(r) {
			c.pool.Put(r)
			return
		}
		c.loadQ.pop()
		budget--
	}
}

func (c *Core) dispatch(now int64) {
	if c.fetchStopped {
		return
	}
	if now < c.fetchStallUntil {
		c.Stats.FetchStallCycles++
		return
	}
	for n := 0; n < c.cfg.Width; n++ {
		if c.robCount == len(c.rob) {
			c.Stats.ROBFullCycles++
			return
		}
		in := &c.instr
		if !c.stream.Next(in) {
			// Finite traces replay from the start (the paper replays
			// benchmarks that finish early in multi-core mixes).
			c.stream.Reset()
			if !c.stream.Next(in) {
				c.streamEnded = true
				return
			}
		}
		c.seq++
		seq := c.seq
		e := &c.rob[c.robTail]
		*e = robEntry{seq: seq, doneAt: now + 1, valid: true}
		if c.robTail++; c.robTail == len(c.rob) {
			c.robTail = 0
		}
		c.robCount++

		// Instruction fetch: one code read per new block.
		if blk := memsys.BlockNumber(in.IP); blk != c.lastFetchBlock {
			c.lastFetchBlock = blk
			c.fetchBlock(now, in.IP)
		}

		// Loads.
		for _, v := range in.Loads {
			if v == 0 {
				continue
			}
			c.Stats.Loads++
			lat := c.tlb.AccessLatency(v)
			e.pendingLoads++
			dep := int64(0)
			// Never depend on a load of the same instruction (it
			// could not resolve before its own entry completes).
			if in.DepPrev && c.lastLoadSeq != seq {
				dep = c.lastLoadSeq
			}
			pl := c.loadQ.push()
			pl.seq = seq
			pl.vaddr = v
			pl.paddr = c.pt.Translate(v)
			pl.ipVal = in.IP
			pl.readyAt = now + 1 + int64(lat)
			pl.depSeq = dep
			pl.isStore = false
			c.lastLoadSeq = seq
		}

		// Stores: the RFO issues through the same in-order queue as
		// the loads (so the L1 sees per-IP access sequences in
		// program order) but does not block retirement — a store
		// buffer drains it.
		for _, v := range in.Stores {
			if v == 0 {
				continue
			}
			c.Stats.Stores++
			lat := c.tlb.AccessLatency(v)
			pl := c.loadQ.push()
			pl.seq = seq
			pl.vaddr = v
			pl.paddr = c.pt.Translate(v)
			pl.ipVal = in.IP
			pl.readyAt = now + 1 + int64(lat)
			pl.depSeq = 0
			pl.isStore = true
		}

		// Branches.
		if in.IsBranch {
			c.Stats.Branches++
			if c.bp.predict(in.IP) != in.Taken {
				c.Stats.Mispredicts++
				c.fetchStallUntil = now + int64(c.cfg.MispredictPenalty)
			}
			c.bp.update(in.IP, in.Taken)
			if in.Taken {
				c.lastFetchBlock = 0 // force a fetch at the target
			}
			if c.fetchStallUntil > now {
				return // redirect: stop dispatching this cycle
			}
		}
	}
}

// fetchBlock issues a code read for the block containing ip.
func (c *Core) fetchBlock(now int64, ip memsys.Addr) {
	if c.l1i == nil {
		return
	}
	c.seqCode++
	r := c.pool.Get() // stale: every field written (see memsys.RequestPool)
	r.Addr = memsys.BlockAlign(ip)
	r.VAddr = memsys.BlockAlign(ip) // code is identity-mapped
	r.IP = ip
	r.Type = memsys.CodeRead
	r.CoreID = c.ID
	r.FillLevel = 0
	r.PfClass, r.PfMeta, r.PfOrigin = 0, 0, 0
	r.ReturnTo = c
	r.Tag = c.seqCode
	r.Born = now
	if c.l1i.AddRead(r) {
		c.codeSeq = c.seqCode
		c.codeIssuedAt = now
	} else {
		c.pool.Put(r)
	}
}

// bimodal is a table of 2-bit saturating counters.
type bimodal struct {
	table []uint8
	mask  uint64
}

func newBimodal(bits int) bimodal {
	n := 1 << bits
	t := make([]uint8, n)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return bimodal{table: t, mask: uint64(n - 1)}
}

func (b *bimodal) predict(ip memsys.Addr) bool {
	return b.table[(ip>>2)&b.mask] >= 2
}

func (b *bimodal) update(ip memsys.Addr, taken bool) {
	i := (ip >> 2) & b.mask
	if taken {
		if b.table[i] < 3 {
			b.table[i]++
		}
	} else if b.table[i] > 0 {
		b.table[i]--
	}
}
