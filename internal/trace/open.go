package trace

import (
	"bytes"
	"fmt"
	"os"
)

// OpenBinary reads a pre-decoded (IPCPTRB2) trace file into memory and
// validates all of it (see NewBinary).
func OpenBinary(path string) (*Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := NewBinary(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Open reads a trace file in either format into a *Binary, routing by
// magic: a pre-decoded (IPCPTRB2) file opens as with OpenBinary, and a
// v1 (IPCPTRC1) file is decoded with ReadAll and re-encoded in memory.
// It writes nothing.
func Open(path string) (*Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b *Binary
	switch {
	case bytes.HasPrefix(data, magic2[:]):
		b, err = NewBinary(data)
	case bytes.HasPrefix(data, magic[:]):
		var s *SliceStream
		if s, err = ReadAll(bytes.NewReader(data)); err == nil {
			b = &Binary{recs: make([]byte, 0, len(s.Instrs)*binRecordSize)}
			for i := range s.Instrs {
				b.recs = appendRecord(b.recs, &s.Instrs[i])
			}
		}
	default:
		err = ErrBadMagic
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}
