package cpu

import (
	"fmt"

	"ipcp/internal/trace"
	"ipcp/internal/vmem"
)

// Snapshot/restore support. A core is only captured at quiescence —
// empty ROB, empty load queue, no in-flight code read — so the state is
// pure data plus the trace-stream position, which is restored by
// replaying the deterministic stream (exactly mirroring dispatch's
// Next/Reset pattern) rather than serializing generator closures.

// State captures a quiescent core.
type State struct {
	Seq             int64
	SeqCode         int64
	StreamEnded     bool
	RobHead         int
	RobTail         int
	LastLoadSeq     int64
	FetchStallUntil int64
	LastFetchBlock  uint64
	CodeIssuedAt    int64
	BPTable         []uint8
	TLB             vmem.HierarchyState
	PageTable       vmem.PageTableState
	Stats           Stats
}

// StopFetch gates dispatch so the core drains: in-flight instructions
// retire, no new ones enter the ROB.
func (c *Core) StopFetch() { c.setFetchStopped(true) }

// ResumeFetch re-opens dispatch after a drain.
func (c *Core) ResumeFetch() { c.setFetchStopped(false) }

// setFetchStopped flips the fetch gate. The gate changes what NextEvent
// answers (a drained core is inert; a re-opened one dispatches next
// cycle), so the core is marked due.
func (c *Core) setFetchStopped(stopped bool) {
	c.Settle() // a gated core books no front-end stalls
	c.fetchStopped = stopped
	c.MarkDue()
}

// Quiescent reports whether the core holds no in-flight work: empty
// ROB, empty load queue, no outstanding code read.
func (c *Core) Quiescent() bool {
	return c.robCount == 0 && c.loadQ.size == 0 && c.codeSeq == -1
}

// CaptureState captures the core. The core must be quiescent.
func (c *Core) CaptureState() (State, error) {
	c.Settle()
	if !c.Quiescent() {
		return State{}, fmt.Errorf("cpu: core %d not quiescent (rob=%d loadq=%d code=%d)",
			c.ID, c.robCount, c.loadQ.size, c.codeSeq)
	}
	return State{
		Seq:             c.seq,
		SeqCode:         c.seqCode,
		StreamEnded:     c.streamEnded,
		RobHead:         c.robHead,
		RobTail:         c.robTail,
		LastLoadSeq:     c.lastLoadSeq,
		FetchStallUntil: c.fetchStallUntil,
		LastFetchBlock:  c.lastFetchBlock,
		CodeIssuedAt:    c.codeIssuedAt,
		BPTable:         append([]uint8(nil), c.bp.table...),
		TLB:             c.tlb.State(),
		PageTable:       c.pt.State(),
		Stats:           c.Stats,
	}, nil
}

// RestoreState overwrites a freshly constructed core (same config, a
// fresh deterministic stream from the same generator and seed, and an
// allocator already replayed to the captured position) with s. The
// stream is advanced by replaying Seq successful Next calls using
// dispatch's exact consume pattern, so the generator's internal state
// matches the original core's bit for bit. now is the cycle the restored
// system resumes at: s.Stats already accounts every cycle before it.
func (c *Core) RestoreState(s State, now int64) error {
	if len(s.BPTable) != len(c.bp.table) {
		return fmt.Errorf("cpu: branch predictor geometry mismatch")
	}
	var in trace.Instr
	for i := int64(0); i < s.Seq; i++ {
		if !c.stream.Next(&in) {
			c.stream.Reset()
			if !c.stream.Next(&in) {
				return fmt.Errorf("cpu: stream exhausted at replay %d/%d", i, s.Seq)
			}
		}
	}
	c.seq = s.Seq
	c.seqCode = s.SeqCode
	c.streamEnded = s.StreamEnded
	c.robHead = s.RobHead
	c.robTail = s.RobTail
	c.robCount = 0
	c.loadQ = loadRing{}
	c.codeSeq = -1
	c.lastLoadSeq = s.LastLoadSeq
	c.fetchStallUntil = s.FetchStallUntil
	c.lastFetchBlock = s.LastFetchBlock
	c.codeIssuedAt = s.CodeIssuedAt
	copy(c.bp.table, s.BPTable)
	c.tlb.SetState(s.TLB)
	c.pt.SetState(s.PageTable)
	c.Stats = s.Stats
	c.acct = now
	c.fetchStopped = false
	return nil
}
