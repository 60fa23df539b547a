package cpu

import (
	"fmt"

	"ipcp/internal/trace"
	"ipcp/internal/vmem"
)

// Snapshot/restore support. A core is only captured at quiescence —
// empty ROB, empty load queue, no in-flight code read — so the state is
// pure data, the trace stream's position included: a core can be
// captured only if its stream is a trace.Seeker, and restore seeks a
// fresh stream there instead of regenerating what came before.

// State captures a quiescent core.
type State struct {
	// Stream is where the core's stream reads next, after Seq
	// instructions.
	Stream          trace.Position
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
	sk, ok := c.stream.(trace.Seeker)
	if !ok {
		return State{}, fmt.Errorf("cpu: core %d: stream %T cannot report its position", c.ID, c.stream)
	}
	return State{
		Stream:          sk.Position(),
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

// SeekStream moves a fresh stream — the same generator and seed the
// captured core read — to the position s records.
func (s State) SeekStream(stream trace.Stream) error {
	sk, ok := stream.(trace.Seeker)
	if !ok {
		return fmt.Errorf("cpu: stream %T cannot seek", stream)
	}
	return sk.Seek(s.Stream, s.Seq)
}

// RestoreState overwrites a freshly constructed core (same config, a
// fresh stream from the same generator and seed, and an allocator
// already replayed to the captured position) with s, seeking the stream
// to the captured position. now is the cycle the restored system resumes
// at: s.Stats already accounts every cycle before it.
func (c *Core) RestoreState(s State, now int64) error {
	if len(s.BPTable) != len(c.bp.table) {
		return fmt.Errorf("cpu: branch predictor geometry mismatch")
	}
	if err := s.SeekStream(c.stream); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.ID, err)
	}
	if err := c.tlb.SetState(s.TLB); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.ID, err)
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
	c.pt.SetState(s.PageTable)
	c.Stats = s.Stats
	c.acct = now
	c.fetchStopped = false
	return nil
}
