package experiments

import (
	"context"

	"ipcp/internal/memsys"
	"ipcp/internal/sim"
	"ipcp/internal/stats"
)

// ipcpPairs runs every workload without prefetching and with IPCP:
// results[2i] is names[i]'s baseline, results[2i+1] its IPCP run.
func ipcpPairs(ctx context.Context, s *Session, names []string) ([]*sim.Result, error) {
	specs := make([]RunSpec, 0, 2*len(names))
	for _, n := range names {
		specs = append(specs, baseline.on(n), ipcpCombo.on(n))
	}
	return s.RunAll(ctx, specs)
}

// --- Fig. 10: demand misses covered by IPCP at each level --------------------

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Demand misses covered by IPCP at L1/L2/LLC",
		Paper: "IPCP covers on average 60% of L1, 79.5% of L2 and 83% of LLC " +
			"demand misses; mcf/omnetpp stay poorly covered.",
		Run: runFig10,
	})
}

func runFig10(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	results, err := ipcpPairs(ctx, s, names)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig10",
		Title:   "IPCP coverage of demand misses per trace",
		Columns: []string{"L1D", "L2", "LLC"},
	}
	var a1, a2, a3 float64
	for i := range names {
		base, pf := results[2*i], results[2*i+1]
		c1 := stats.Coverage(base.TotalDemandMisses("L1D"), pf.TotalDemandMisses("L1D"))
		c2 := stats.Coverage(base.TotalDemandMisses("L2"), pf.TotalDemandMisses("L2"))
		c3 := stats.Coverage(base.TotalDemandMisses("LLC"), pf.TotalDemandMisses("LLC"))
		t.AddRow(names[i], c1, c2, c3)
		a1 += c1
		a2 += c2
		a3 += c3
	}
	n := float64(len(names))
	t.AddRow("average", a1/n, a2/n, a3/n)
	t.Notes = append(t.Notes, "Paper Fig. 10: averages 0.60 / 0.795 / 0.83; irregular traces near zero.")
	return t, nil
}

// --- Fig. 11: covered / uncovered / over-predicted at L1 ----------------------

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Covered, uncovered and over-predicted L1 misses with IPCP",
		Paper: "Most traces are majority-covered; over-prediction stays small " +
			"except on irregular traces.",
		Run: runFig11,
	})
}

func runFig11(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	results, err := ipcpPairs(ctx, s, names)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig11",
		Title:   "Fraction of baseline L1 demand misses: covered / uncovered / over-predicted",
		Columns: []string{"covered", "uncovered", "overpredicted"},
	}
	var ac, au, ao float64
	for i, n := range names {
		baseMiss := results[2*i].TotalDemandMisses("L1D")
		r := results[2*i+1]
		cov := stats.Coverage(baseMiss, r.TotalDemandMisses("L1D"))
		if cov < 0 {
			cov = 0
		}
		over := stats.OverPrediction(r.L1D[0].PrefetchFills, r.L1D[0].PrefetchUseful, baseMiss)
		t.AddRow(n, cov, 1-cov, over)
		ac += cov
		au += 1 - cov
		ao += over
	}
	cnt := float64(len(names))
	t.AddRow("average", ac/cnt, au/cnt, ao/cnt)
	return t, nil
}

// --- Fig. 12: per-class contribution to L1 coverage ----------------------------

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Contribution of each IPCP class to L1 coverage",
		Paper: "On average CS contributes 46.7% and GS 30% of covered misses; " +
			"CPLX and NL pick up complex/irregular traces (mcf).",
		Run: runFig12,
	})
}

func runFig12(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	specs := make([]RunSpec, len(names))
	for i, n := range names {
		specs[i] = ipcpCombo.on(n)
	}
	results, err := s.RunAll(ctx, specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12",
		Title:   "Share of useful L1 prefetches per class",
		Columns: []string{"CS", "CPLX", "GS", "NL"},
	}
	var tot [memsys.NumClasses]uint64
	for i, n := range names {
		u := results[i].L1D[0].UsefulByClass
		sum := u[memsys.ClassCS] + u[memsys.ClassCPLX] + u[memsys.ClassGS] + u[memsys.ClassNL]
		if sum == 0 {
			t.AddRow(n, 0, 0, 0, 0)
			continue
		}
		t.AddRow(n,
			stats.Ratio(u[memsys.ClassCS], sum),
			stats.Ratio(u[memsys.ClassCPLX], sum),
			stats.Ratio(u[memsys.ClassGS], sum),
			stats.Ratio(u[memsys.ClassNL], sum))
		for c := 0; c < memsys.NumClasses; c++ {
			tot[c] += u[c]
		}
	}
	sum := tot[memsys.ClassCS] + tot[memsys.ClassCPLX] + tot[memsys.ClassGS] + tot[memsys.ClassNL]
	if sum > 0 {
		t.AddRow("overall",
			stats.Ratio(tot[memsys.ClassCS], sum),
			stats.Ratio(tot[memsys.ClassCPLX], sum),
			stats.Ratio(tot[memsys.ClassGS], sum),
			stats.Ratio(tot[memsys.ClassNL], sum))
	}
	t.Notes = append(t.Notes, "Paper Fig. 12: CS and GS dominate; CPLX carries mcf-1536-style traces; NL is a small remainder.")
	return t, nil
}
