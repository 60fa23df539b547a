package experiments

import (
	"strings"
	"testing"
)

// tiny is a fast scale for unit tests.
var tiny = Scale{Warmup: 8_000, Measure: 20_000, MaxTraces: 3, Mixes: 2, Seed: 1}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13a", "fig13b", "fig14a", "fig14b", "fig15", "tab1", "tab4",
		"sens-repl", "sens-cache", "sens-dram", "sens-pq", "sens-tables",
		"abl-rr", "abl-throttle", "abl-region", "abl-degree", "abl-sig"}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registered %d experiments, want at least %d", len(All()), len(want))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestSessionMemoization(t *testing.T) {
	s := NewSession(tiny)
	spec := RunSpec{Workloads: []string{"bwaves-98"}}
	a, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical specs not memoized")
	}
	c, err := s.Run(RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp"})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different specs shared a cache entry")
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("r1", 1.5, 2.25)
	tab.Notes = append(tab.Notes, "note")
	md := tab.Markdown()
	for _, want := range []string{"### x", "| r1 | 1.500 | 2.250 |", "> note"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if _, ok := tab.Find("r1"); !ok {
		t.Error("Find failed")
	}
	if _, ok := tab.Find("nope"); ok {
		t.Error("Find invented a row")
	}
}

func TestHeterogeneousMixesDeterministic(t *testing.T) {
	pool := []string{"a", "b", "c"}
	m1 := heterogeneousMixes(pool, 4, 3, 42)
	m2 := heterogeneousMixes(pool, 4, 3, 42)
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m2[i][j] {
				t.Fatal("mixes not deterministic")
			}
		}
	}
	if len(m1) != 3 || len(m1[0]) != 4 {
		t.Error("mix shape wrong")
	}
}

func TestHomogeneousMixes(t *testing.T) {
	m := homogeneousMixes([]string{"x", "y"}, 4, 5)
	if len(m) != 2 {
		t.Fatalf("count = %d, want capped at pool size 2", len(m))
	}
	for _, mix := range m {
		for _, w := range mix {
			if w != mix[0] {
				t.Error("homogeneous mix not homogeneous")
			}
		}
	}
}

func TestCapSpreadKeepsDiversity(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	got := capSpread(names, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != "a" || got[3] != "g" {
		t.Errorf("spread = %v; want endpoints near both ends", got)
	}
	if out := capSpread(names, 0); len(out) != len(names) {
		t.Error("cap 0 must be a no-op")
	}
	if out := capSpread(names, 20); len(out) != len(names) {
		t.Error("cap beyond length must be a no-op")
	}
}

func TestMemIntensiveSubsetIncludesIrregular(t *testing.T) {
	names := Scale{MaxTraces: 18}.memIntensive()
	hasIrregular := false
	for _, n := range names {
		if n == "mcf-994" || n == "omnetpp-17" || n == "omnetpp-874" ||
			n == "mcf-1536" || n == "omnetpp-340" || n == "mcf-484" || n == "mcf-1554" {
			hasIrregular = true
		}
	}
	if !hasIrregular {
		t.Errorf("capped subset lost the irregular traces: %v", names)
	}
}
