package prefetch

import (
	"testing"

	"ipcp/internal/memsys"
)

func TestFillAtOverridesLevel(t *testing.T) {
	inner := NewNextLine()
	w := FillAt{Inner: inner, Level: memsys.LevelL2}
	rec := &recorder{}
	w.Operate(0, &Access{Addr: 0x5000, VAddr: 0x5000, IP: 1, Type: memsys.Load}, rec)
	if len(rec.cands) == 0 {
		t.Fatal("wrapped prefetcher issued nothing")
	}
	for _, c := range rec.cands {
		if c.FillLevel != memsys.LevelL2 {
			t.Errorf("FillLevel = %v, want L2", c.FillLevel)
		}
	}
	if w.Name() != "nl@L2" {
		t.Errorf("Name = %q", w.Name())
	}
	// The other hooks pass through without panicking.
	w.Fill(0, &FillEvent{Addr: 0x5000})
	w.Cycle(1)
}

// TestFillAtByName: "<name>@l2" is the registered <name> under FillAt —
// Fig. 1's "learn at L1, fill at L2" placement as a plain name.
func TestFillAtByName(t *testing.T) {
	p, err := New("ipstride@l2", memsys.LevelL1D)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := p.(FillAt)
	if !ok || w.Level != memsys.LevelL2 || w.Inner.Name() != "ipstride" || p.Name() != "ipstride@L2" {
		t.Errorf("New(ipstride@l2) = %#v", p)
	}
	for _, bad := range []string{"ipstride@l9", "ipstride@", "warp-drive@l2", "ipstride@l2@llc"} {
		if _, err := New(bad, memsys.LevelL1D); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

// TestCheckAgreesWithNew: Check accepts exactly the names New builds,
// refuses the rest with New's own error, and allocates nothing doing it.
func TestCheckAgreesWithNew(t *testing.T) {
	names := []string{"", "@l2", "none@llc", "ipstride@l9", "ipstride@", "warp-drive", "warp-drive@l2", "ipstride@l2@llc"}
	for _, n := range Names() {
		names = append(names, n, n+"@l1d", n+"@l2", n+"@llc")
	}
	for _, name := range names {
		_, newErr := New(name, memsys.LevelL1D)
		if err := Check(name); (err == nil) != (newErr == nil) || (err != nil && err.Error() != newErr.Error()) {
			t.Errorf("Check(%q) = %v, New says %v", name, err, newErr)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Check("ipstride@l2") }); n != 0 {
		t.Errorf("Check allocates %v times per call; it must construct nothing", n)
	}
}
