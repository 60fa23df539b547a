package experiments

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ipcp/internal/core"
	"ipcp/internal/memsys"
	"ipcp/internal/sim"
)

// perturb changes one struct field to a different value of its type.
func perturb(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 7)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Slice:
		switch s := f.Interface().(type) {
		case []string:
			f.Set(reflect.ValueOf(append(slices.Clone(s), "x")))
		case []memsys.PrefetchClass:
			s = slices.Clone(s)
			s[0], s[1] = s[1], s[0]
			f.Set(reflect.ValueOf(s))
		default:
			t.Fatalf("perturb: unhandled slice type %s", f.Type())
		}
	case reflect.Pointer: // RunSpec.IPCPL1
		cfg := core.DefaultL1Config()
		cfg.DegreeGS++
		f.Set(reflect.ValueOf(&cfg))
	default:
		t.Fatalf("perturb: unhandled kind %s — teach the test the new field's type", f.Kind())
	}
}

// TestRunSpecEveryFieldIsKeyed: identity is derived from content, so
// there is no list of fields to forget one in — and this holds it to
// that. Perturbing any field of RunSpec changes Key; it changes
// WarmupKey unless the field is one of the prefetcher fields, which
// attach after the warmup. Likewise every field of an IPCP variant.
func TestRunSpecEveryFieldIsKeyed(t *testing.T) {
	base := RunSpec{
		Workloads: []string{"mcf-994", "lbm-94"}, L1D: "ipstride", L2: "spp", LLC: "nl",
		LLCRepl: "srrip", DRAMGBps: 6.4, L1PQ: 4, L1MSHR: 8, L1DWays: 8, L2Sets: 512, LLCSetsPerCore: 1024, Seed: 5,
	}
	prefetcherField := map[string]bool{"L1D": true, "L2": true, "LLC": true, "IPCPL1": true}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		spec := base
		perturb(t, reflect.ValueOf(&spec).Elem().Field(i))
		if name == "IPCPL1" {
			spec.L1D = "" // a variant takes the L1-D slot
			if spec.Key() == (RunSpec{Workloads: base.Workloads, L1D: "ipcp", L2: "spp", LLC: "nl"}).Key() {
				t.Errorf("an IPCP variant keys like the default IPCP")
			}
		}
		if spec.Key() == base.Key() {
			t.Errorf("RunSpec.%s is not part of Key: %s", name, base.Key())
		}
		if changed := WarmupKey(Quick, spec) != WarmupKey(Quick, base); changed == prefetcherField[name] {
			t.Errorf("RunSpec.%s: WarmupKey changed = %v, want %v", name, changed, !prefetcherField[name])
		}
	}

	variant := core.DefaultL1Config()
	variant.DegreeGS = 5
	base.L1D, base.IPCPL1 = "", &variant
	ctyp := reflect.TypeOf(variant)
	for i := 0; i < ctyp.NumField(); i++ {
		if !ctyp.Field(i).IsExported() {
			continue // not configuration: what the object was decoded from
		}
		cfg := variant
		perturb(t, reflect.ValueOf(&cfg).Elem().Field(i))
		spec := base
		spec.IPCPL1 = &cfg
		if spec.Key() == base.Key() {
			t.Errorf("L1Config.%s is not part of Key", ctyp.Field(i).Name)
		}
		if WarmupKey(Quick, spec) != WarmupKey(Quick, base) {
			t.Errorf("L1Config.%s moved WarmupKey; the L1 prefetcher attaches after the warmup", ctyp.Field(i).Name)
		}
	}

	// Scale enters the warmup identity through the resolved seed and
	// the warmup length, and nothing else.
	plain := RunSpec{Workloads: []string{"mcf-994"}}
	seeded := plain
	seeded.Seed = Quick.Seed
	longer := Quick
	longer.Warmup++
	if WarmupKey(Quick, plain) != WarmupKey(Quick, seeded) || WarmupKey(Quick, plain) == WarmupKey(longer, plain) {
		t.Errorf("WarmupKey does not resolve the seed / carry the warmup length")
	}
}

// TestEqualContentRunsOnce: the ten ways `-run all` used to spell the
// default L1+L2 IPCP point — each under its own hand-typed key, each a
// separate simulation — built the way their experiments build them now,
// are one simulation.
func TestEqualContentRunsOnce(t *testing.T) {
	sens := func(mutate func(*RunSpec)) RunSpec { // sensGeomean's spec
		spec := ipcpCombo.on()
		mutate(&spec)
		return spec
	}
	paper := core.DefaultL1Config()
	spellings := map[string]RunSpec{
		"IPCP (fig8/10/11/12)": ipcpCombo.on(),
		"cls-full-l2":          variantSpec(true, func(*core.L1Config) {}),
		"prio-0": variantSpec(true, func(c *core.L1Config) {
			c.Priority = []memsys.PrefetchClass{memsys.ClassGS, memsys.ClassCS, memsys.ClassCPLX, memsys.ClassNL}
		}),
		"cache-0":   sens(func(*RunSpec) {}),
		"tables-x1": variantSpec(true, func(c *core.L1Config) { c.IPTableEntries *= 1; c.RSTEntries *= 1 }),
		"cplxdeg-3": variantSpec(true, func(c *core.L1Config) { c.DegreeCPLX = 3 }),
		"region-11": variantSpec(true, func(c *core.L1Config) { c.RegionBits = 11 }),
		"sig-7":     variantSpec(true, func(c *core.L1Config) { c.SignatureBits, c.CSPTEntries = 7, 1<<7 }),
		"rr-on":     variantSpec(true, func(c *core.L1Config) { c.UseRRFilter = true }),
		"throttle-high=0.75 low=0.40": variantSpec(true, func(c *core.L1Config) {
			c.ThrottleHigh, c.ThrottleLow = paper.ThrottleHigh, paper.ThrottleLow
		}),
	}
	s := NewSession(tiny)
	var first *sim.Result
	for label, spec := range spellings {
		spec.Workloads = []string{"lbm-94"}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := s.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if first == nil {
			first = res
		}
		if res != first {
			t.Errorf("%s did not recall the one shared result", label)
		}
	}
	if st := s.Stats(); st.Executed != 1 || st.MemoHits != len(spellings)-1 {
		t.Fatalf("executed %d, memo hits %d; want 1 and %d", st.Executed, st.MemoHits, len(spellings)-1)
	}
	// A variant that is not the paper's configuration is its own run.
	other := variantSpec(true, func(c *core.L1Config) { c.DegreeCPLX = 4 })
	other.Workloads = []string{"lbm-94"}
	if _, err := s.Run(other); err != nil || s.Executed() != 2 {
		t.Fatalf("degree-4 variant: err %v, executed %d, want its own simulation", err, s.Executed())
	}
}

// TestRunSpecWireForm: the spec is its own request body. A variant
// object names only what it changes, an "@l2" name travels as a name,
// and whatever decodes re-encodes to a body with the same identity.
func TestRunSpecWireForm(t *testing.T) {
	for _, body := range []string{
		`{"workloads":["lbm-94"],"l1d":"ipcp","l2":"ipcp","seed":7}`,
		`{"workloads":["mcf-994"],"l2":"ipcp","ipcp_l1":{"degree_cplx":4,"priority":["CS","GS","CPLX","NL"]}}`,
		`{"workloads":["mcf-994"],"l1d":"ipstride@l2"}`,
	} {
		var spec RunSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var again RunSpec
		if err := json.Unmarshal([]byte(spec.Key()), &again); err != nil || again.Key() != spec.Key() {
			t.Errorf("%s: key %s does not decode back to itself (%v)", body, spec.Key(), err)
		}
	}
	var v RunSpec
	if err := json.Unmarshal([]byte(`{"workloads":["mcf-994"],"ipcp_l1":{"degree_cplx":4}}`), &v); err != nil {
		t.Fatal(err)
	}
	want := core.DefaultL1Config()
	want.DegreeCPLX = 4
	if !reflect.DeepEqual(*v.IPCPL1, want) {
		t.Errorf("variant object did not decode onto the paper's defaults: %+v", *v.IPCPL1)
	}
	if !strings.Contains(v.Key(), `"l1d":"ipcp"`) {
		t.Errorf("a variant's key does not name the L1-D slot: %s", v.Key())
	}
}

// TestRunSpecValidate: what used to be a queued failing job — or a
// host-sized allocation — is refused up front, and whatever is accepted
// builds.
func TestRunSpecValidate(t *testing.T) {
	with := func(mutate func(*core.L1Config)) *core.L1Config {
		return variantSpec(false, mutate).IPCPL1
	}
	one := []string{"mcf-994"}
	bad := map[string]RunSpec{
		"no workloads":         {},
		"unknown workload":     {Workloads: []string{"no-such-trace"}},
		"core mismatch":        {Workloads: one, Cores: 3},
		"three cores":          {Workloads: []string{"mcf-994", "mcf-994", "mcf-994"}},
		"unknown prefetcher":   {Workloads: one, L2: "warp-drive"},
		"unknown fill level":   {Workloads: one, L1D: "ipstride@l9"},
		"unknown policy":       {Workloads: one, LLCRepl: "clairvoyant"},
		"l2 sets not 2^n":      {Workloads: one, L2Sets: 1000},
		"huge llc":             {Workloads: one, LLCSetsPerCore: 1 << 30},
		"negative mshr":        {Workloads: one, L1MSHR: -1},
		"negative bandwidth":   {Workloads: one, DRAMGBps: -1},
		"variant beside spp":   {Workloads: one, L1D: "spp", IPCPL1: with(func(c *core.L1Config) { c.DegreeGS = 4 })},
		"region_bits 99":       {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.RegionBits = 99 })},
		"2^30-entry table":     {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.IPTableEntries = 1 << 30 })},
		"priority not a perm":  {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.Priority[0] = memsys.ClassCS })},
		"priority too short":   {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.Priority = c.Priority[:3] })},
		"cspt/signature split": {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.SignatureBits = 9 })},
		"negative signature":   {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.SignatureBits = -1 })},
		"watermarks crossed":   {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.ThrottleLow = 0.9 })},
		"degree 0":             {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.DegreeCS = 0 })},
		"empty rst":            {Workloads: one, IPCPL1: with(func(c *core.L1Config) { c.RSTEntries = 0 })},
	}
	bad["paper variant beside spp"] = RunSpec{Workloads: one, L1D: "spp", IPCPL1: with(func(*core.L1Config) {})}
	bad["variant beside none"] = RunSpec{Workloads: one, L1D: "none", IPCPL1: with(func(c *core.L1Config) { c.DegreeGS = 4 })}
	var unknownKnob RunSpec
	if err := json.Unmarshal([]byte(`{"workloads":["mcf-994"],"ipcp_l1":{"no_such_knob":1}}`), &unknownKnob); err != nil {
		t.Fatal(err)
	}
	bad["unknown ipcp_l1 field"] = unknownKnob
	for name, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// A submission is coalesced by Key before it is validated, so no
		// refused spec may share its identity with an accepted one.
		if err := spec.normalised().Validate(); err == nil {
			t.Errorf("%s: refused, but its normalised form %s is accepted", name, spec.Key())
		}
	}
	s := NewSession(tiny)
	for name, spec := range map[string]RunSpec{
		"plain":    {Workloads: one},
		"ceilings": {Workloads: one, L1PQ: 1 << 10, L1MSHR: 1 << 10, L1DWays: 1 << 6, L2Sets: 1 << 15, LLCSetsPerCore: 1 << 15, DRAMGBps: 1024, LLCRepl: "mpppb"},
		"variant at its edges": {Workloads: []string{"mcf-994", "lbm-94"}, L2: "ipcp", IPCPL1: with(func(c *core.L1Config) {
			c.SignatureBits, c.CSPTEntries, c.RegionBits = 16, 1<<16, 12
			c.ThrottleHigh, c.ThrottleLow = 1.01, -0.01
		})},
		"fill at l2": {Workloads: one, L1D: "bingo@l2", L2: "none"},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		streams, err := spec.Streams(s.specSeed(spec))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sim.Build(spec.Config(1), streams)
		if err != nil {
			t.Errorf("%s validates but does not build: %v", name, err)
			continue
		}
		sys.Release()
	}
}
