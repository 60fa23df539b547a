package main

import (
	"testing"
)

func TestCanonicalJSON(t *testing.T) {
	for _, c := range []struct{ name, a, b string }{
		{"key order and whitespace",
			`{"b": 1, "a": {"y": [1, 2], "x": null}}`,
			"{\n \"a\": {\"x\": null, \"y\": [1,2]},\n \"b\": 1}"},
		{"float formatting",
			`{"ipc": 0.81128455087055470, "x": 1.50, "y": 2.0, "z": 1e3}`,
			`{"ipc": 0.8112845508705547, "x": 1.5, "y": 2, "z": 1000}`},
		{"exponent forms", `[1.5e-7, 12345678.9]`, `[0.00000015, 1.23456789e7]`},
	} {
		ca, err := canonicalJSON([]byte(c.a))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cb, err := canonicalJSON([]byte(c.b))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(ca) != string(cb) {
			t.Errorf("%s: canonical forms differ:\n%s\n%s", c.name, ca, cb)
		}
	}

	got, err := canonicalJSON([]byte(`{"b":[true,"s"],"a":18446744073709551615}`))
	if err != nil {
		t.Fatal(err)
	}
	// Integers keep every digit (a uint64 counter does not fit a float64).
	if want := `{"a":18446744073709551615,"b":[true,"s"]}`; string(got) != want {
		t.Errorf("canonical = %s, want %s", got, want)
	}

	a, _ := canonicalJSON([]byte(`{"ipc": 0.8112845508705547}`))
	b, _ := canonicalJSON([]byte(`{"ipc": 0.8112845508705548}`))
	if string(a) == string(b) {
		t.Error("a one-ulp difference must survive canonicalisation: the digest exists to catch it")
	}
	if _, err := canonicalJSON([]byte(`{"a":`)); err == nil {
		t.Error("truncated JSON accepted")
	}
}

func TestDigest(t *testing.T) {
	a, b := []byte(`{"a":1}`), []byte(`{"b":2}`)
	if digest(a, b) == digest(b, a) {
		t.Error("digest ignores the order of its parts")
	}
	if digest([]byte("ab"), []byte("c")) == digest([]byte("a"), []byte("bc")) {
		t.Error("digest ignores the boundaries of its parts")
	}
	d := digest(a)
	if len(d) != 64 {
		t.Fatalf("digest is %d hex chars, want 64", len(d))
	}
	// The metric form is the first 48 bits, exactly representable.
	if got := digest48("0000000000ff" + d[12:]); got != 255 {
		t.Errorf("digest48 = %v, want 255", got)
	}
	if got := digest48("ffffffffffff"); got != float64(1<<48-1) {
		t.Errorf("digest48 = %v, want 2^48-1", got)
	}
	if digest48("") != 0 {
		t.Error("digest48 of an empty digest must be 0")
	}
}

const sampleResult = `{"Cores":1,"Instructions":1000,"CyclesPerCore":[2000],"IPC":[0.5],
 "L1D":[{"Miss":[10,5,7,0,1],"PrefetchIssued":40,"PrefetchFills":20,"PrefetchUseful":15,"IssuedByClass":[0,10,0,30,0]}],
 "L2":[{"Miss":[4,0,0,0,0],"PrefetchIssued":8,"PrefetchFills":8,"PrefetchUseful":2,"IssuedByClass":[0,0,0,0,0]}],
 "LLC":{"Miss":[3,0,0,0,0]},
 "DRAM":{"Reads":9,"Writes":1,"BusBusyCycles":500,"Cycles":2000}}`

func TestModelMetrics(t *testing.T) {
	r, err := parseSimResult([]byte(sampleResult))
	if err != nil {
		t.Fatal(err)
	}
	got := modelMetrics([]*simResult{r, r})
	for name, want := range map[string]float64{
		"model.ipc":             0.5,
		"sim.cycles":            4000,
		"model.l1d_mpki":        16, // demand misses only: loads, RFOs and code reads
		"model.l2_mpki":         4,
		"model.llc_mpki":        3,
		"model.l1d_pf_issued":   80,
		"model.l1d_pf_accuracy": 0.75,
		"model.dram_reads":      18,
		"model.dram_bus_util":   0.25,
		"model.class_share_cs":  0.25,
		"model.class_share_gs":  0.75,
		"model.class_share_nl":  0,
	} {
		if !near(got[name], want) {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	for _, bad := range []string{
		`{"Cores":1,"Instructions":0,"CyclesPerCore":[1],"IPC":[1]}`,
		`{"Cores":2,"Instructions":10,"CyclesPerCore":[1],"IPC":[1]}`,
		`{"Cores":1,"Instructions":10,"CyclesPerCore":[1],"IPC":[0]}`,
		`not json`,
	} {
		if _, err := parseSimResult([]byte(bad)); err == nil {
			t.Errorf("parseSimResult accepted %s", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.start(nil, "root")
	a, b, c := root.child("a"), root.child("b"), root.child("c")
	grand := a.child("grand")
	// root 0..100; a 10..40; b 30..60 (overlaps a); c 80..120 (runs past
	// its parent); grand 15..25 inside a.
	root.Start, root.End = 0, 100
	a.Start, a.End = 10, 40
	b.Start, b.End = 30, 60
	c.Start, c.End = 80, 120
	grand.Start, grand.End = 15, 25
	self := selfTimes([]*span{root, a, b, c, grand})
	// Children cover 10..60 and 80..100 of the root: 70 of its 100.
	if self[root.ID] != 30 {
		t.Errorf("root self time = %v, want 30", self[root.ID])
	}
	if self[a.ID] != 20 {
		t.Errorf("a self time = %v, want 20 (30 long, 10 covered)", self[a.ID])
	}
	if self[grand.ID] != 10 {
		t.Errorf("leaf self time = %v, want its duration", self[grand.ID])
	}
	if grand.Rep != root.Rep || grand.Parent != a.ID {
		t.Error("a child span must carry its parent's id and repetition")
	}
	var nilTracer *tracer
	if s := nilTracer.start(nil, "x"); s != nil || s.child("y") != nil {
		t.Error("a nil tracer must record nothing")
	}
}
