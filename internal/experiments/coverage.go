package experiments

import (
	"ipcp/internal/memsys"
	"ipcp/internal/stats"
)

// ipcpPairs is every memory-intensive trace without prefetching and with
// IPCP: entry 2i is trace i's baseline, entry 2i+1 its IPCP run.
func ipcpPairs(sc Scale) []RunSpec {
	names := sc.memIntensive()
	specs := make([]RunSpec, 0, 2*len(names))
	for _, n := range names {
		specs = append(specs, baseline.on(n), ipcpCombo.on(n))
	}
	return specs
}

// --- Fig. 10: demand misses covered by IPCP at each level --------------------

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Demand misses covered by IPCP at L1/L2/LLC",
		Paper: "IPCP covers on average 60% of L1, 79.5% of L2 and 83% of LLC " +
			"demand misses; mcf/omnetpp stay poorly covered.",
		Plan: ipcpPairs,
		Table: func(sc Scale, r Results) (*Table, error) {
			names := sc.memIntensive()
			results, err := r.all(ipcpPairs(sc))
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
		},
	})
}

// --- Fig. 11: covered / uncovered / over-predicted at L1 ----------------------

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Covered, uncovered and over-predicted L1 misses with IPCP",
		Paper: "Most traces are majority-covered; over-prediction stays small " +
			"except on irregular traces.",
		Plan: ipcpPairs,
		Table: func(sc Scale, r Results) (*Table, error) {
			names := sc.memIntensive()
			results, err := r.all(ipcpPairs(sc))
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
				pf := results[2*i+1]
				cov := stats.Coverage(baseMiss, pf.TotalDemandMisses("L1D"))
				if cov < 0 {
					cov = 0
				}
				over := stats.OverPrediction(pf.L1D[0].PrefetchFills, pf.L1D[0].PrefetchUseful, baseMiss)
				t.AddRow(n, cov, 1-cov, over)
				ac += cov
				au += 1 - cov
				ao += over
			}
			cnt := float64(len(names))
			t.AddRow("average", ac/cnt, au/cnt, ao/cnt)
			return t, nil
		},
	})
}

// --- Fig. 12: per-class contribution to L1 coverage ----------------------------

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Contribution of each IPCP class to L1 coverage",
		Paper: "On average CS contributes 46.7% and GS 30% of covered misses; " +
			"CPLX and NL pick up complex/irregular traces (mcf).",
		Plan: func(sc Scale) []RunSpec { return ipcpCombo.onEach(sc.memIntensive()) },
		Table: func(sc Scale, r Results) (*Table, error) {
			names := sc.memIntensive()
			results, err := r.all(ipcpCombo.onEach(names))
			if err != nil {
				return nil, err
			}
			t := &Table{
				ID:      "fig12",
				Title:   "Share of useful L1 prefetches per class",
				Columns: []string{"CS", "CPLX", "GS", "NL"},
			}
			// A trace with no useful prefetch reads all zeros (stats.Ratio).
			shares := func(u [memsys.NumClasses]uint64) []float64 {
				sum := u[memsys.ClassCS] + u[memsys.ClassCPLX] + u[memsys.ClassGS] + u[memsys.ClassNL]
				return []float64{stats.Ratio(u[memsys.ClassCS], sum), stats.Ratio(u[memsys.ClassCPLX], sum),
					stats.Ratio(u[memsys.ClassGS], sum), stats.Ratio(u[memsys.ClassNL], sum)}
			}
			var tot [memsys.NumClasses]uint64
			for i, n := range names {
				u := results[i].L1D[0].UsefulByClass
				t.AddRow(n, shares(u)...)
				for c := range tot {
					tot[c] += u[c]
				}
			}
			if tot[memsys.ClassCS]+tot[memsys.ClassCPLX]+tot[memsys.ClassGS]+tot[memsys.ClassNL] > 0 {
				t.AddRow("overall", shares(tot)...)
			}
			t.Notes = append(t.Notes, "Paper Fig. 12: CS and GS dominate; CPLX carries mcf-1536-style traces; NL is a small remainder.")
			return t, nil
		},
	})
}
