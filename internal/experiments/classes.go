package experiments

import (
	"context"

	"ipcp/internal/core"
	"ipcp/internal/memsys"
	"ipcp/internal/stats"
)

// variantSpec is IPCP with one mutation of the paper's L1 configuration,
// with or without the L2 IPCP under it. An empty mutation is the
// paper's IPCP itself (RunSpec normalises it onto the "ipcp" name).
func variantSpec(withL2 bool, mutate func(*core.L1Config)) RunSpec {
	cfg := core.DefaultL1Config()
	mutate(&cfg)
	spec := RunSpec{IPCPL1: &cfg}
	if withL2 {
		spec.L2 = "ipcp"
	}
	return spec
}

// --- Fig. 13a: utility of IPCP classes ---------------------------------------

func init() {
	register(Experiment{
		ID:    "fig13a",
		Title: "Utility of IPCP classes in isolation and combined",
		Paper: "CS and CPLX are the strongest in isolation (>30%); GS alone " +
			"<15% but lifts the bouquet; full L1 bouquet 40%; +L2 adds 5.1%.",
		Run: runFig13a,
	})
}

func runFig13a(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	variants := []struct {
		label  string
		withL2 bool
		mut    func(*core.L1Config)
	}{
		{"CS only", false, func(c *core.L1Config) {
			c.EnableCPLX, c.EnableGS, c.EnableNL = false, false, false
		}},
		{"CPLX only", false, func(c *core.L1Config) {
			c.EnableCS, c.EnableGS, c.EnableNL = false, false, false
		}},
		{"GS only", false, func(c *core.L1Config) {
			c.EnableCS, c.EnableCPLX, c.EnableNL = false, false, false
		}},
		{"CS+CPLX", false, func(c *core.L1Config) {
			c.EnableGS, c.EnableNL = false, false
		}},
		{"CS+CPLX+NL", false, func(c *core.L1Config) {
			c.EnableGS = false
		}},
		{"IPCP L1 (full bouquet)", false, func(c *core.L1Config) {}},
		{"IPCP L1+L2", true, func(c *core.L1Config) {}},
	}
	t := &Table{
		ID:      "fig13a",
		Title:   "Geomean speedup per class configuration",
		Columns: []string{"speedup"},
	}
	for _, v := range variants {
		sp, err := Speedups(ctx, s, names, variantSpec(v.withL2, v.mut))
		if err != nil {
			return nil, err
		}
		t.AddRow(v.label, stats.Geomean(sp))
	}
	t.Notes = append(t.Notes,
		"Paper Fig. 13a: the bouquet beats every class in isolation, and the L2 IPCP adds on top.")
	return t, nil
}

// --- Fig. 13b: priority orders and metadata ------------------------------------

func init() {
	register(Experiment{
		ID:    "fig13b",
		Title: "Class priority orders and metadata utility",
		Paper: "GS-first priority is best (reordering costs up to 9%); " +
			"dropping the L1→L2 metadata costs 3.1%.",
		Run: runFig13b,
	})
}

func runFig13b(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	orders := []struct {
		label string
		order []memsys.PrefetchClass
	}{
		{"GS>CS>CPLX>NL (paper)", []memsys.PrefetchClass{memsys.ClassGS, memsys.ClassCS, memsys.ClassCPLX, memsys.ClassNL}},
		{"CS>GS>CPLX>NL", []memsys.PrefetchClass{memsys.ClassCS, memsys.ClassGS, memsys.ClassCPLX, memsys.ClassNL}},
		{"CPLX>CS>GS>NL", []memsys.PrefetchClass{memsys.ClassCPLX, memsys.ClassCS, memsys.ClassGS, memsys.ClassNL}},
		{"NL>CPLX>CS>GS", []memsys.PrefetchClass{memsys.ClassNL, memsys.ClassCPLX, memsys.ClassCS, memsys.ClassGS}},
	}
	t := &Table{
		ID:      "fig13b",
		Title:   "Geomean speedup per priority order (IPCP L1+L2)",
		Columns: []string{"speedup"},
	}
	for _, o := range orders {
		sp, err := Speedups(ctx, s, names, variantSpec(true, func(c *core.L1Config) {
			c.Priority = o.order
		}))
		if err != nil {
			return nil, err
		}
		t.AddRow(o.label, stats.Geomean(sp))
	}
	// Metadata off.
	sp, err := Speedups(ctx, s, names, variantSpec(true, func(c *core.L1Config) {
		c.EmitMetadata = false
	}))
	if err != nil {
		return nil, err
	}
	t.AddRow("paper order, metadata off", stats.Geomean(sp))
	t.Notes = append(t.Notes,
		"Paper Fig. 13b: the GS-first order wins; disabling metadata costs ~3.1% on memory-intensive traces.")
	return t, nil
}
