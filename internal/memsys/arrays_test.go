package memsys

import "testing"

func TestArrayPoolRecyclesZeroedByLength(t *testing.T) {
	var p ArrayPool[uint64]
	a := p.Get(1024)
	for i := range a {
		a[i] = ^uint64(0)
	}
	p.Put(a)
	if b := p.Get(512); len(b) != 512 || &b[0] == &a[0] {
		t.Fatalf("Get(512) returned len %d, aliasing the 1024 array: %v", len(b), &b[0] == &a[0])
	}
	b := p.Get(1024)
	if &b[0] != &a[0] {
		t.Fatal("Get(1024) allocated although a 1024 array was free")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled array not cleared: [%d] = %#x", i, v)
		}
	}
	if c := p.Get(1024); &c[0] == &a[0] {
		t.Fatal("one free array handed out twice")
	}
}

func TestArrayPoolIsBounded(t *testing.T) {
	var p ArrayPool[byte]
	const n = arrayPoolBudget/4 + 1 // three fit, the fourth does not
	for i := 0; i < 4; i++ {
		p.Put(make([]byte, n))
	}
	if p.retained != 3*n || len(p.free[n]) != 3 {
		t.Fatalf("retained %d bytes in %d arrays, want 3 arrays of %d", p.retained, len(p.free[n]), n)
	}
	p.Get(n)
	if p.retained != 2*n {
		t.Fatalf("retained %d after a Get, want %d", p.retained, 2*n)
	}
	p.Put(nil) // nothing to recycle, nothing to account
	if p.retained != 2*n {
		t.Fatalf("Put(nil) moved the account to %d", p.retained)
	}
}
