// Package store is the one place that knows how this repository puts
// bytes on disk durably: the two frame layouts that tell a whole
// payload from a torn or flipped one, the atomic write, and the
// quarantine that moves damage aside instead of decoding it. The job
// journal (serve), the checkpoint cache and its snapshot spills
// (experiments) and the coordinator's blob store (coord) are policy on
// top of it. Not here, on purpose: the v2 trace block trailer (one CRC
// per record block, not a whole-payload frame) and the snapshot gob
// inside a blob (payloads are opaque here). See DESIGN §14.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// castagnoli is CRC-32C, hardware-accelerated on every modern CPU.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind is one sort of framed file in a Dir: its extension and the magic
// that opens its header.
type Kind struct{ Ext, Magic string }

var (
	// Checkpoint frames one simulation result (JSON payload).
	Checkpoint = Kind{Ext: ".json", Magic: "ipcp-ckpt-v2"}
	// Blob frames opaque bytes: a warmup-snapshot spill on a worker,
	// anything on the coordinator and on the /v1/blobs wire.
	Blob = Kind{Ext: ".blob", Magic: "ipcp-blob-v1"}
)

// Frame wraps payload in a one-line header — text, so a file stays
// inspectable with cat:
//
//	<magic> <payload-bytes> <crc32c-hex>\n<payload>
func Frame(magic string, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+32+len(payload))
	out = fmt.Appendf(out, "%s %d %08x\n", magic, len(payload), crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// Unframe verifies a frame and returns its payload (a subslice of
// data). Wrong magic, truncated or malformed header, short payload,
// trailing garbage and CRC mismatch are all errors, never a payload.
func Unframe(magic string, data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(magic+" ")) {
		return nil, fmt.Errorf("store: bad magic (want %s)", magic)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("store: truncated header")
	}
	var n int
	var crc uint32
	if _, err := fmt.Sscanf(string(data[len(magic)+1:nl]), "%d %08x", &n, &crc); err != nil {
		return nil, fmt.Errorf("store: malformed header: %w", err)
	}
	payload := data[nl+1:]
	if n < 0 || len(payload) != n {
		return nil, fmt.Errorf("store: payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, fmt.Errorf("store: crc mismatch (%08x != %08x)", got, crc)
	}
	return payload, nil
}

// A write-ahead-log record is binary and checksummed on its own:
//
//	uint32le payload length | uint32le CRC-32C(payload) | payload
//
// MaxRecord bounds it so a corrupt length field cannot ask a reader to
// allocate gigabytes.
const (
	recordHeader = 8
	MaxRecord    = 64 << 20
)

// AppendRecord appends one framed record to dst.
func AppendRecord(dst, payload []byte) []byte {
	dst = slices.Grow(dst, recordHeader+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// NextRecord decodes the record at the head of data and returns its
// payload and the bytes after it. A torn header, a length past
// MaxRecord or past the data, and a CRC mismatch are errors: the caller
// keeps what it decoded before and trusts nothing after.
func NextRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) < recordHeader {
		return nil, nil, errors.New("store: torn record header")
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxRecord || int(n) > len(data)-recordHeader {
		return nil, nil, fmt.Errorf("store: record claims %d bytes, %d follow", n, len(data)-recordHeader)
	}
	payload = data[recordHeader : recordHeader+int(n)]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, nil, fmt.Errorf("store: record crc mismatch (%08x != %08x)", got, crc)
	}
	return payload, data[recordHeader+int(n):], nil
}
