package cache

import (
	"reflect"
	"testing"

	"ipcp/internal/memsys"
)

// TestLinesCodec: a line array round-trips its packed encoding exactly —
// never-filled lines, stale tags of invalidated lines, every flag and
// class — and bytes the encoder could not have written are refused.
func TestLinesCodec(t *testing.T) {
	ls := Lines{
		{},
		{Tag: 1 << 40, Valid: true, Dirty: true},
		{Tag: 7, Prefetched: true, Valid: true, Class: memsys.PrefetchClass(3)},
		{Tag: 9}, // invalidated, tag kept
		{Class: memsys.PrefetchClass(2)},
		{},
	}
	b, err := ls.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var got Lines
	if err := got.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ls) {
		t.Fatalf("round trip = %+v, want %+v", got, ls)
	}
	for _, c := range []struct {
		what string
		b    []byte
	}{
		{"no bytes", nil},
		{"a count past the bytes", []byte{9, 0}},
		{"an unknown flag", []byte{1, 0x40}},
		{"a cut line", append([]byte(nil), b[:len(b)-3]...)},
		{"bytes left over", append(append([]byte(nil), b...), 0)},
		{"a tagged line with no tag", []byte{1, lineTagged, 0}},
	} {
		var d Lines
		if err := d.GobDecode(c.b); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", c.what, d)
		}
	}
}
