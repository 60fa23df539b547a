// Package trace defines the instruction trace record the simulator's
// cores consume, the Stream interface that both trace files and
// synthetic generators implement, and a compact binary file format for
// persisting traces.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxLoads and MaxStores bound the memory operands a single instruction
// may carry (ChampSim allows more; two loads and one store cover the
// workloads we generate).
const (
	MaxLoads  = 2
	MaxStores = 1
)

// Instr is one dynamic instruction. Zero addresses mean "no operand".
type Instr struct {
	IP     uint64
	Loads  [MaxLoads]uint64
	Stores [MaxStores]uint64

	// DepPrev marks a load whose address depends on the data of the
	// most recent earlier load (pointer chasing / indexed gathers).
	// Dependent loads cannot issue until that load completes, which
	// serializes the demand miss stream — the latency prefetchers
	// exist to hide.
	DepPrev bool

	IsBranch bool
	Taken    bool
	Target   uint64
}

// HasMemory reports whether the instruction carries any memory operand.
func (in *Instr) HasMemory() bool {
	return in.Loads[0] != 0 || in.Stores[0] != 0
}

// Reset clears the record for reuse.
func (in *Instr) Reset() {
	*in = Instr{}
}

// Stream produces a sequence of instructions. Implementations must be
// deterministic given their construction parameters so that multi-core
// replay and "run alone" normalization see identical streams.
type Stream interface {
	// Next fills in with the next instruction and reports whether one
	// was produced. Synthetic generators are typically infinite and
	// always return true; file-backed streams return false at EOF.
	Next(in *Instr) bool
	// Reset rewinds the stream to its beginning.
	Reset()
}

// Position is where a stream's next Next reads from, as plain data: what
// a fresh instance of the same stream (same constructor, same seed) needs
// to resume there without producing anything before it.
type Position struct {
	// Seed is the generator's seed (0 for a stream that draws nothing).
	Seed int64
	// Draws counts the random numbers the stream has consumed.
	Draws uint64
	// Cursor is the stream's own state, in an order the stream defines.
	Cursor []uint64

	// live is the stream's random state at this position as a value (see
	// WithLive). It is unexported, so never encoded: a position decoded
	// from bytes has none.
	live any
}

// WithLive returns p carrying live, the reporting stream's own copy of
// its state at p. A fresh instance of that stream in this process seeks
// to p by copying live instead of re-drawing Draws random numbers.
func (p Position) WithLive(live any) Position {
	p.live = live
	return p
}

// Live returns what WithLive attached: nil for a position decoded from
// bytes, which a stream seeks the validated, re-drawing way.
func (p Position) Live() any { return p.live }

// Seeker is a Stream whose position is data. A warmup snapshot records
// each core's Position; a fork Seeks a fresh stream there instead of
// regenerating the warmup's instructions.
type Seeker interface {
	Stream
	// Position reports where the next Next reads from.
	Position() Position
	// Seek moves a fresh stream to p, reported by a stream built the
	// same way after n successful Next calls. A position that stream
	// could not have reported is an error, and leaves the stream reset.
	Seek(p Position, n int64) error
}

// --- Binary file format -------------------------------------------------
//
// Header:  magic "IPCPTRC1" (8 bytes), little-endian uint64 count
//          (0 = unknown/streamed).
// Record:  flags byte, then varint-style fields:
//            bit0 IsBranch, bit1 Taken, bit2 has Target,
//            bit3 has Loads[0], bit4 has Loads[1], bit5 has Stores[0],
//            bit6 DepPrev.
//          IP always present (8 bytes LE), each present operand 8 bytes.

var magic = [8]byte{'I', 'P', 'C', 'P', 'T', 'R', 'C', '1'}

// ErrCorrupt marks input the reader recognized as damaged: an invalid
// header field, a record with reserved flag bits set, or a stream that
// ends mid-record or short of its declared count. Errors carrying it
// always wrap the byte offset of the damage, so errors.Is(err,
// ErrCorrupt) detects corruption and the message pinpoints it.
var ErrCorrupt = errors.New("corrupt trace")

// ErrBadMagic is returned when a trace file does not start with the
// expected header. It wraps ErrCorrupt.
var ErrBadMagic = fmt.Errorf("%w: bad magic", ErrCorrupt)

// flagsReserved masks the record flag bits the format does not define;
// a record with any of them set cannot have come from Writer.
const flagsReserved = byte(0x80)

// maxPreallocRecords bounds the slab ReadAll sizes from the header's
// declared count, so a corrupt header claiming 2^60 records cannot ask
// for gigabytes before a single record is validated.
const maxPreallocRecords = 1 << 20

// Writer serializes instructions to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count uint64

	// seeker is the underlying writer when it can seek (a file), and
	// start the offset its header begins at: Flush patches the record
	// count there. Nil leaves the trace streamed.
	seeker io.WriteSeeker
	start  int64
}

// NewWriter writes a header and returns a Writer. The header's record
// count is written as 0 (streamed); when w is an io.WriteSeeker that
// can seek — a file — every Flush patches it to the records written so
// far, so a reader detects a file cut short.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w)}
	if ws, ok := w.(io.WriteSeeker); ok {
		if start, err := ws.Seek(0, io.SeekCurrent); err == nil {
			tw.seeker, tw.start = ws, start
		}
	}
	if _, err := tw.w.Write(magic[:]); err != nil {
		return nil, err
	}
	var cnt [8]byte
	if _, err := tw.w.Write(cnt[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Write appends one instruction record.
func (w *Writer) Write(in *Instr) error {
	var flags byte
	if in.IsBranch {
		flags |= 1
	}
	if in.Taken {
		flags |= 2
	}
	if in.Target != 0 {
		flags |= 4
	}
	if in.Loads[0] != 0 {
		flags |= 8
	}
	if in.Loads[1] != 0 {
		flags |= 16
	}
	if in.Stores[0] != 0 {
		flags |= 32
	}
	if in.DepPrev {
		flags |= 64
	}
	buf := make([]byte, 1, 1+8*5)
	buf[0] = flags
	buf = binary.LittleEndian.AppendUint64(buf, in.IP)
	if flags&4 != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, in.Target)
	}
	if flags&8 != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, in.Loads[0])
	}
	if flags&16 != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, in.Loads[1])
	}
	if flags&32 != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, in.Stores[0])
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.count++
	return nil
}

// Flush flushes buffered records to the underlying writer and, when it
// can seek, writes their count into the header.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil || w.seeker == nil {
		return err
	}
	end, err := w.seeker.Seek(0, io.SeekCurrent)
	if err == nil {
		_, err = w.seeker.Seek(w.start+int64(len(magic)), io.SeekStart)
	}
	if err == nil {
		_, err = w.seeker.Write(binary.LittleEndian.AppendUint64(nil, w.count))
	}
	if err == nil {
		_, err = w.seeker.Seek(end, io.SeekStart)
	}
	return err
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Reader deserializes instructions from an io.Reader. It is defensive
// against corrupt input: header fields are validated, reserved flag
// bits rejected, truncation detected against the header's declared
// record count, and every failure wraps ErrCorrupt (or the underlying
// I/O error) with the byte offset where reading stopped.
type Reader struct {
	r    *bufio.Reader
	err  error
	off  int64  // bytes consumed so far
	read uint64 // records decoded so far
	// declared is the header's record count (0 = streamed/unknown).
	declared uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if n, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header at byte %d: %w: %w", n, ErrCorrupt, err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br, off: int64(len(hdr)), declared: binary.LittleEndian.Uint64(hdr[8:])}, nil
}

// Declared returns the header's record count (0 when the trace was
// written streamed).
func (r *Reader) Declared() uint64 { return r.declared }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int64 { return r.off }

// corrupt records and returns a sticky corruption error at the current
// offset.
func (r *Reader) corrupt(format string, args ...any) error {
	r.err = fmt.Errorf("trace: %s at byte %d: %w", fmt.Sprintf(format, args...), r.off, ErrCorrupt)
	return r.err
}

// Read fills in with the next record. It returns io.EOF at end of
// trace; any other error is sticky and wraps the byte offset.
func (r *Reader) Read(in *Instr) error {
	if r.err != nil {
		return r.err
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) && r.declared != 0 && r.read < r.declared {
			return r.corrupt("truncated: %d of %d declared records", r.read, r.declared)
		}
		r.err = err
		return err
	}
	recStart := r.off
	if flags&flagsReserved != 0 {
		// Report the offset of the bad flags byte itself.
		return r.corrupt("record %d has reserved flag bits (0x%02x)", r.read, flags)
	}
	r.off++
	in.Reset()
	in.IsBranch = flags&1 != 0
	in.Taken = flags&2 != 0
	in.DepPrev = flags&64 != 0
	read64 := func() uint64 {
		var b [8]byte
		n, e := io.ReadFull(r.r, b[:])
		r.off += int64(n)
		if e != nil {
			if err == nil {
				err = e
			}
			return 0
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	in.IP = read64()
	if flags&4 != 0 {
		in.Target = read64()
	}
	if flags&8 != 0 {
		in.Loads[0] = read64()
	}
	if flags&16 != 0 {
		in.Loads[1] = read64()
	}
	if flags&32 != 0 {
		in.Stores[0] = read64()
	}
	if err != nil {
		return r.corrupt("record %d (starting at byte %d) cut short", r.read, recStart)
	}
	r.read++
	return nil
}

// SliceStream adapts an in-memory instruction slice to the Stream
// interface, replaying it in a loop when Loop is set.
type SliceStream struct {
	Instrs []Instr
	Loop   bool
	pos    int
}

// Next implements Stream.
func (s *SliceStream) Next(in *Instr) bool {
	if s.pos >= len(s.Instrs) {
		if !s.Loop || len(s.Instrs) == 0 {
			return false
		}
		s.pos = 0
	}
	*in = s.Instrs[s.pos]
	s.pos++
	return true
}

// Reset implements Stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Position implements Seeker: a slice stream's cursor is its index.
func (s *SliceStream) Position() Position {
	return Position{Cursor: []uint64{uint64(s.pos)}}
}

// Seek implements Seeker.
func (s *SliceStream) Seek(p Position, n int64) error {
	s.pos = 0
	if p.Seed != 0 || p.Draws != 0 || len(p.Cursor) != 1 || p.Cursor[0] > uint64(len(s.Instrs)) || n < 0 {
		return fmt.Errorf("trace: position (seed %d, %d draws, %d cursor words) is not one of a %d-instruction slice",
			p.Seed, p.Draws, len(p.Cursor), len(s.Instrs))
	}
	s.pos = int(p.Cursor[0])
	return nil
}

// Collect drains up to n instructions from a stream into a slice
// (useful for tests and for writing trace files from generators).
func Collect(s Stream, n int) []Instr {
	out := make([]Instr, 0, n)
	var in Instr
	for len(out) < n && s.Next(&in) {
		out = append(out, in)
	}
	return out
}

// StreamFunc adapts a pair of functions to the Stream interface
// (probing/wrapping streams in tests and tools).
type StreamFunc struct {
	NextFn  func(*Instr) bool
	ResetFn func()
}

// Next implements Stream.
func (s StreamFunc) Next(in *Instr) bool { return s.NextFn(in) }

// Reset implements Stream.
func (s StreamFunc) Reset() { s.ResetFn() }

// ReadAll deserializes an entire trace into memory and returns a
// looping SliceStream over it, so recorded traces plug into the
// simulator exactly like synthetic generators.
func ReadAll(r io.Reader) (*SliceStream, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	// Preallocate from the header's declared count, bounded so a corrupt
	// header cannot demand an absurd slab up front.
	prealloc := tr.Declared()
	if prealloc > maxPreallocRecords {
		prealloc = maxPreallocRecords
	}
	out := make([]Instr, 0, prealloc)
	for {
		var in Instr
		if err := tr.Read(&in); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		out = append(out, in)
	}
	return &SliceStream{Instrs: out, Loop: true}, nil
}
