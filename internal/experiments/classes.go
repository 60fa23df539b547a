package experiments

import (
	"ipcp/internal/core"
	"ipcp/internal/memsys"
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
	register(speedupGrid(Experiment{
		ID:    "fig13a",
		Title: "Utility of IPCP classes in isolation and combined",
		Paper: "CS and CPLX are the strongest in isolation (>30%); GS alone " +
			"<15% but lifts the bouquet; full L1 bouquet 40%; +L2 adds 5.1%.",
	}, Table{
		Title:   "Geomean speedup per class configuration",
		Columns: []string{"speedup"},
		Notes:   []string{"Paper Fig. 13a: the bouquet beats every class in isolation, and the L2 IPCP adds on top."},
	},
		gridRow("CS only", variantSpec(false, func(c *core.L1Config) {
			c.EnableCPLX, c.EnableGS, c.EnableNL = false, false, false
		})),
		gridRow("CPLX only", variantSpec(false, func(c *core.L1Config) {
			c.EnableCS, c.EnableGS, c.EnableNL = false, false, false
		})),
		gridRow("GS only", variantSpec(false, func(c *core.L1Config) {
			c.EnableCS, c.EnableCPLX, c.EnableNL = false, false, false
		})),
		gridRow("CS+CPLX", variantSpec(false, func(c *core.L1Config) {
			c.EnableGS, c.EnableNL = false, false
		})),
		gridRow("CS+CPLX+NL", variantSpec(false, func(c *core.L1Config) {
			c.EnableGS = false
		})),
		gridRow("IPCP L1 (full bouquet)", variantSpec(false, func(c *core.L1Config) {})),
		gridRow("IPCP L1+L2", variantSpec(true, func(c *core.L1Config) {})),
	))
}

// --- Fig. 13b: priority orders and metadata ------------------------------------

func init() {
	var rows []speedupRow
	for _, o := range []struct {
		label string
		order []memsys.PrefetchClass
	}{
		{"GS>CS>CPLX>NL (paper)", []memsys.PrefetchClass{memsys.ClassGS, memsys.ClassCS, memsys.ClassCPLX, memsys.ClassNL}},
		{"CS>GS>CPLX>NL", []memsys.PrefetchClass{memsys.ClassCS, memsys.ClassGS, memsys.ClassCPLX, memsys.ClassNL}},
		{"CPLX>CS>GS>NL", []memsys.PrefetchClass{memsys.ClassCPLX, memsys.ClassCS, memsys.ClassGS, memsys.ClassNL}},
		{"NL>CPLX>CS>GS", []memsys.PrefetchClass{memsys.ClassNL, memsys.ClassCPLX, memsys.ClassCS, memsys.ClassGS}},
	} {
		rows = append(rows, gridRow(o.label, variantSpec(true, func(c *core.L1Config) { c.Priority = o.order })))
	}
	rows = append(rows, gridRow("paper order, metadata off", variantSpec(true, func(c *core.L1Config) {
		c.EmitMetadata = false
	})))
	register(speedupGrid(Experiment{
		ID:    "fig13b",
		Title: "Class priority orders and metadata utility",
		Paper: "GS-first priority is best (reordering costs up to 9%); " +
			"dropping the L1→L2 metadata costs 3.1%.",
	}, Table{
		Title:   "Geomean speedup per priority order (IPCP L1+L2)",
		Columns: []string{"speedup"},
		Notes: []string{
			"Paper Fig. 13b: the GS-first order wins; disabling metadata costs ~3.1% on memory-intensive traces."},
	}, rows...))
}
