package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// --- Pre-decoded binary format (version 2) -------------------------------
//
// The v1 format (IPCPTRC1) optimizes for size: variable-width records
// whose flag byte says which operands follow. This format optimizes for
// replay: fixed-width 48-byte records that decode with five
// unconditional loads, so record i lives at a computable offset.
//
// Layout (all integers little-endian):
//
//	offset  0: magic "IPCPTRB2" (8 bytes)
//	offset  8: count       uint64 — number of records
//	offset 16: recordSize  uint32 — 48 (self-describing for evolution)
//	offset 20: blockRecords uint32 — records per CRC block (4096)
//	offset 24: reserved    [32]byte — written as zeros, ignored on read
//	offset 56: headerCRC   uint32 — CRC-32C of bytes [0,56)
//	offset 60: pad         uint32 — zero
//	offset 64: count × 48-byte records
//	then:      ceil(count/blockRecords) × uint32 — CRC-32C per block of
//	           record bytes (the last block covers the remainder)
//
// Record (48 bytes): IP, Loads[0], Loads[1], Stores[0], Target as
// uint64, then a flags byte (bit0 IsBranch, bit1 Taken, bit2 DepPrev;
// the rest reserved and zero), then 7 zero pad bytes.
//
// Integrity: NewBinary checks the header's CRC, the size the header
// implies and every block's CRC before it returns; cursors check each
// record's reserved flag bits as they decode it. Any damage wraps
// ErrCorrupt.

var magic2 = [8]byte{'I', 'P', 'C', 'P', 'T', 'R', 'B', '2'}

const (
	binHeaderSize   = 64
	binRecordSize   = 48
	binBlockRecords = 4096

	binFlagBranch  = 1 << 0
	binFlagTaken   = 1 << 1
	binFlagDepPrev = 1 << 2
	binFlagsUnused = ^byte(binFlagBranch | binFlagTaken | binFlagDepPrev)
)

// binCRCTable is the Castagnoli table (matching the checkpoint store's
// framing; hardware-accelerated on every platform Go targets).
var binCRCTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends in's 48-byte record to dst.
func appendRecord(dst []byte, in *Instr) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, in.IP)
	dst = binary.LittleEndian.AppendUint64(dst, in.Loads[0])
	dst = binary.LittleEndian.AppendUint64(dst, in.Loads[1])
	dst = binary.LittleEndian.AppendUint64(dst, in.Stores[0])
	dst = binary.LittleEndian.AppendUint64(dst, in.Target)
	var flags byte
	if in.IsBranch {
		flags |= binFlagBranch
	}
	if in.Taken {
		flags |= binFlagTaken
	}
	if in.DepPrev {
		flags |= binFlagDepPrev
	}
	return append(dst, flags, 0, 0, 0, 0, 0, 0, 0)
}

// decodeRecord deserializes src (len >= binRecordSize) into in. It
// reports whether the record is well-formed (no reserved bits set).
func decodeRecord(src []byte, in *Instr) bool {
	flags := src[40]
	if flags&binFlagsUnused != 0 {
		return false
	}
	in.IP = binary.LittleEndian.Uint64(src[0:])
	in.Loads[0] = binary.LittleEndian.Uint64(src[8:])
	in.Loads[1] = binary.LittleEndian.Uint64(src[16:])
	in.Stores[0] = binary.LittleEndian.Uint64(src[24:])
	in.Target = binary.LittleEndian.Uint64(src[32:])
	in.IsBranch = flags&binFlagBranch != 0
	in.Taken = flags&binFlagTaken != 0
	in.DepPrev = flags&binFlagDepPrev != 0
	return true
}

// --- writer ---------------------------------------------------------------

// BinaryWriter emits the pre-decoded format. The header's count and the
// CRC trailer are known only at the end, so it keeps the records in
// memory and writes the whole file at Close.
type BinaryWriter struct {
	w      io.Writer
	buf    []byte // a zeroed header, then every record written so far
	closed bool
}

// NewBinaryWriter returns a writer that emits to w at Close. It never
// fails; the error is part of the signature callers already check.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	return &BinaryWriter{w: w, buf: make([]byte, binHeaderSize)}, nil
}

// Write appends one record.
func (w *BinaryWriter) Write(in *Instr) error {
	if w.closed {
		return fmt.Errorf("trace: write on closed BinaryWriter")
	}
	w.buf = appendRecord(w.buf, in)
	return nil
}

// Close fills in the header, appends the CRC trailer and writes the
// file. It does not close the underlying writer.
func (w *BinaryWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	recs := w.buf[binHeaderSize:]
	for off := 0; off < len(recs); off += binBlockRecords * binRecordSize {
		block := recs[off:min(off+binBlockRecords*binRecordSize, len(recs))]
		w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(block, binCRCTable))
	}
	hdr := w.buf[:binHeaderSize]
	copy(hdr, magic2[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(recs)/binRecordSize))
	binary.LittleEndian.PutUint32(hdr[16:], binRecordSize)
	binary.LittleEndian.PutUint32(hdr[20:], binBlockRecords)
	binary.LittleEndian.PutUint32(hdr[56:], crc32.Checksum(hdr[:56], binCRCTable))
	_, err := w.w.Write(w.buf)
	w.buf = nil
	return err
}

// --- reader ---------------------------------------------------------------

// Binary is a pre-decoded trace held in memory: record bytes that were
// verified when it was opened and are never written again, so any
// number of cursors (Stream hands out independent ones) may read it
// concurrently.
type Binary struct {
	recs []byte
}

// NewBinary validates a whole pre-decoded trace image — magic, header
// CRC, geometry, the size the header implies, and every block's CRC —
// and returns a Binary over its records. The Binary keeps data, which
// the caller must not modify afterwards.
func NewBinary(data []byte) (*Binary, error) {
	if len(data) < binHeaderSize {
		return nil, fmt.Errorf("trace: binary header truncated at byte %d: %w", len(data), ErrCorrupt)
	}
	hdr := data[:binHeaderSize]
	if [8]byte(hdr[:8]) != magic2 {
		return nil, ErrBadMagic
	}
	if got, want := binary.LittleEndian.Uint32(hdr[56:]), crc32.Checksum(hdr[:56], binCRCTable); got != want {
		return nil, fmt.Errorf("trace: binary header CRC mismatch (%08x != %08x): %w", got, want, ErrCorrupt)
	}
	recSize := binary.LittleEndian.Uint32(hdr[16:])
	blkRec := uint64(binary.LittleEndian.Uint32(hdr[20:]))
	if recSize != binRecordSize || blkRec == 0 {
		return nil, fmt.Errorf("trace: unsupported binary geometry (record=%d block=%d): %w", recSize, blkRec, ErrCorrupt)
	}
	count, size := binary.LittleEndian.Uint64(hdr[8:]), uint64(len(data))
	if count > (size-binHeaderSize)/binRecordSize {
		return nil, fmt.Errorf("trace: binary count %d exceeds file size %d: %w", count, size, ErrCorrupt)
	}
	nBlocks := (count + blkRec - 1) / blkRec
	end := binHeaderSize + count*binRecordSize
	if expect := end + nBlocks*4; expect != size {
		return nil, fmt.Errorf("trace: binary size mismatch (declared layout %d bytes, file %d): %w", expect, size, ErrCorrupt)
	}
	recs, trailer := data[binHeaderSize:end], data[end:]
	blockLen := blkRec * binRecordSize
	for i := uint64(0); i < nBlocks; i++ {
		off := i * blockLen
		got := crc32.Checksum(recs[off:min(off+blockLen, uint64(len(recs)))], binCRCTable)
		if want := binary.LittleEndian.Uint32(trailer[4*i:]); got != want {
			return nil, fmt.Errorf("trace: binary block %d CRC mismatch (%08x != %08x) at byte %d: %w",
				i, got, want, binHeaderSize+off, ErrCorrupt)
		}
	}
	return &Binary{recs: recs}, nil
}

// Count returns the record count.
func (b *Binary) Count() uint64 { return uint64(len(b.recs) / binRecordSize) }

// Close releases nothing: the trace is plain memory. It pairs with Open
// for callers that close what they open.
func (b *Binary) Close() error { return nil }

// Stream returns a fresh independent cursor positioned at record 0.
// Cursors are not safe for concurrent use individually, but any number
// may read the same Binary concurrently.
func (b *Binary) Stream() *BinaryStream { return &BinaryStream{recs: b.recs} }

// BinaryStream is one cursor over a Binary. It implements Stream: Next
// returns false at end of trace (callers Reset to replay, exactly like
// the simulator's cores do) and false-with-sticky-error on a record
// with reserved flag bits, distinguishable via Err.
type BinaryStream struct {
	recs []byte
	off  int // byte offset of the next record
	err  error
}

// Next implements Stream.
func (s *BinaryStream) Next(in *Instr) bool {
	if s.err != nil || s.off >= len(s.recs) {
		return false
	}
	if !decodeRecord(s.recs[s.off:s.off+binRecordSize], in) {
		s.err = fmt.Errorf("trace: binary record %d has reserved flag bits: %w", s.off/binRecordSize, ErrCorrupt)
		return false
	}
	s.off += binRecordSize
	return true
}

// Reset implements Stream. A corruption error is sticky across Reset —
// a damaged trace must not silently replay as a shorter loop.
func (s *BinaryStream) Reset() { s.off = 0 }

// Err returns the sticky corruption error, nil after clean EOF.
func (s *BinaryStream) Err() error { return s.err }
