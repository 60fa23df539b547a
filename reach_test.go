package ipcp_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"ipcp/internal/core"
	"ipcp/internal/experiments"
	"ipcp/internal/prefetch"
	"ipcp/internal/repl"
	"ipcp/internal/sim"
	"ipcp/internal/workload"
)

// Every registered name and every configuration field earns its lines
// by reaching a run: some experiment's plan, at Quick or Default, names
// it or moves it off the paper's value. The test reads plans only and
// simulates nothing. It lives in the root package because no test here
// registers a name of its own.

// unscored are prefetcher names no plan reaches that the benchmark
// module still builds by name; they go, or enter a scored figure, with
// the next change to the benchmark.
var unscored = []string{"sms", "vldp"}

// unmoved are the L1Config fields no plan moves off the paper's value
// that the DPC-3 reference preset (ROADMAP item 14) sets as data.
var unmoved = []string{"DegreeCS", "DegreeGS", "NLThresholdMPKC"}

// identity are the RunSpec fields that say which run, not which system:
// the walks over the prefetcher and workload registries and over
// L1Config cover the first five. Every other field is a system knob.
var identity = map[string]bool{
	"Workloads": true, "L1D": true, "L2": true, "LLC": true, "IPCPL1": true,
	"Seed": true,
}

func plans() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, sc := range []experiments.Scale{experiments.Quick, experiments.Default} {
		for _, e := range experiments.All() {
			specs = append(specs, e.Plan(sc)...)
		}
	}
	return specs
}

// reached returns what the plans reach, as "kind:name" strings.
func reached(specs []experiments.RunSpec) map[string]bool {
	seen := map[string]bool{}
	def := reflect.ValueOf(core.DefaultL1Config())
	for _, spec := range specs {
		for _, name := range []string{spec.L1D, spec.L2, spec.LLC} {
			name, _, _ = strings.Cut(name, "@")
			if name == "" {
				name = "none"
			}
			seen["prefetcher:"+name] = true
		}
		if spec.IPCPL1 != nil {
			seen["prefetcher:ipcp"] = true
			v := reflect.ValueOf(*spec.IPCPL1)
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() && !reflect.DeepEqual(v.Field(i).Interface(), def.Field(i).Interface()) {
					seen["L1Config."+v.Type().Field(i).Name] = true
				}
			}
		}
		seen["repl:"+spec.LLCRepl] = true
		for _, w := range spec.Workloads {
			seen["workload:"+w] = true
		}
		// A knob reaches the run when unsetting it changes the system.
		sig := sim.ConfigSignature(spec.Config(1))
		rt := reflect.TypeOf(spec)
		for i := 0; i < rt.NumField(); i++ {
			unset := spec
			f := reflect.ValueOf(&unset).Elem().Field(i)
			if identity[rt.Field(i).Name] || f.IsZero() {
				continue
			}
			f.SetZero()
			if sim.ConfigSignature(unset.Config(1)) != sig {
				seen["RunSpec."+rt.Field(i).Name] = true
			}
		}
	}
	return seen
}

// candidates lists every registered name and every field the plans must
// reach, in reached's "kind:name" form.
func candidates() []string {
	var all []string
	for _, n := range prefetch.Names() {
		all = append(all, "prefetcher:"+n)
	}
	for _, n := range repl.Names() {
		all = append(all, "repl:"+n)
	}
	for _, w := range workload.All() {
		all = append(all, "workload:"+w.Name)
	}
	rt := reflect.TypeOf(experiments.RunSpec{})
	for i := 0; i < rt.NumField(); i++ {
		if !identity[rt.Field(i).Name] {
			all = append(all, "RunSpec."+rt.Field(i).Name)
		}
	}
	lt := reflect.TypeOf(core.L1Config{})
	for i := 0; i < lt.NumField(); i++ {
		if lt.Field(i).IsExported() {
			all = append(all, "L1Config."+lt.Field(i).Name)
		}
	}
	return all
}

func TestEveryNameHasARun(t *testing.T) {
	seen := reached(plans())
	excepted := map[string]bool{}
	for _, n := range unscored {
		excepted["prefetcher:"+n] = true
	}
	for _, f := range unmoved {
		excepted["L1Config."+f] = true
	}
	var unreached []string
	for _, c := range candidates() {
		switch {
		case excepted[c]:
			delete(excepted, c)
			if seen[c] {
				t.Errorf("%s is reached by a plan now: drop it from its exception set", c)
			}
		case !seen[c]:
			unreached = append(unreached, c)
		}
	}
	for c := range excepted {
		t.Errorf("%s is in an exception set but no longer exists: drop it", c)
	}
	sort.Strings(unreached)
	for _, c := range unreached {
		t.Errorf("no experiment plan reaches %s: score it or delete it", c)
	}
}
