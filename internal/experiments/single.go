package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ipcp/internal/core"
	"ipcp/internal/stats"
)

// speedupPair is spec running one trace (spec.Workloads is ignored) and
// the same system with every prefetcher off: the one pairing of a
// prefetched run with its baseline.
func speedupPair(spec RunSpec, trace string) (base, pf RunSpec) {
	pf = spec
	pf.Workloads = []string{trace}
	base = pf
	base.L1D, base.L2, base.LLC, base.IPCPL1 = "", "", "", nil
	return base, pf
}

// speedupPlan lists every pair speedups reads for each spec over names.
func speedupPlan(names []string, specs ...RunSpec) []RunSpec {
	plan := make([]RunSpec, 0, 2*len(names)*len(specs))
	for _, spec := range specs {
		for _, n := range names {
			base, pf := speedupPair(spec, n)
			plan = append(plan, base, pf)
		}
	}
	return plan
}

// speedups returns each spec's per-trace speedups over its baseline, one
// column per spec in names order. A failed run (panic, corrupt trace,
// cycle-limit blowup) degrades that trace's entry to NaN — rendered as
// n/a, noted under the table, and carried into any geomean over the
// column — while the remaining traces stay exact.
func (r Results) speedups(names []string, specs ...RunSpec) [][]float64 {
	cols := make([][]float64, len(specs))
	for j, spec := range specs {
		cols[j] = make([]float64, len(names))
		for i, n := range names {
			base, pf := speedupPair(spec, n)
			b, errB := r.Get(base)
			p, errP := r.Get(pf)
			if cmp.Or(errB, errP) != nil {
				cols[j][i] = math.NaN()
				continue
			}
			cols[j][i] = stats.Speedup(p.IPC[0], b.IPC[0])
		}
	}
	return cols
}

// addColumns adds to t one row per label holding each column's entry
// for it.
func addColumns(t *Table, labels []string, cols [][]float64) {
	for i, label := range labels {
		row := make([]float64, len(cols))
		for j := range cols {
			row[j] = cols[j][i]
		}
		t.AddRow(label, row...)
	}
}

// geomeans returns each column's geomean.
func geomeans(cols [][]float64) []float64 {
	out := make([]float64, len(cols))
	for j, col := range cols {
		out[j] = stats.Geomean(col)
	}
	return out
}

// speedupRow is one row of a speedupGrid: its label and one spec per
// column.
type speedupRow struct {
	label string
	specs []RunSpec
}

func gridRow(label string, specs ...RunSpec) speedupRow { return speedupRow{label, specs} }

// speedupGrid completes e as a table whose every cell is one spec's
// geomean speedup over the memory-intensive set; tmpl gives the table's
// title, columns and notes.
func speedupGrid(e Experiment, tmpl Table, rows ...speedupRow) Experiment {
	e.Plan = func(sc Scale) []RunSpec {
		var plan []RunSpec
		for _, row := range rows {
			plan = append(plan, speedupPlan(sc.memIntensive(), row.specs...)...)
		}
		return plan
	}
	e.Table = func(sc Scale, r Results) (*Table, error) {
		t := &Table{ID: e.ID, Title: tmpl.Title, Columns: tmpl.Columns, Notes: slices.Clone(tmpl.Notes)}
		for _, row := range rows {
			t.AddRow(row.label, geomeans(r.speedups(sc.memIntensive(), row.specs...))...)
		}
		return t, nil
	}
	return e
}

// geomeanRow is a perTraceGrid summary row: each combo's geomean speedup
// over traces(scale).
type geomeanRow struct {
	label  string
	traces func(Scale) []string
}

// perTraceGrid completes e as a table with one column per combo: a row
// per trace of traces(scale), each cell that combo's speedup on the
// trace, closed by the geo summary rows; tmpl gives its title and notes.
func perTraceGrid(e Experiment, tmpl Table, combos []Combo, traces func(Scale) []string, geo ...geomeanRow) Experiment {
	specs := make([]RunSpec, len(combos))
	for i, c := range combos {
		specs[i] = c.on()
	}
	e.Plan = func(sc Scale) []RunSpec {
		plan := speedupPlan(traces(sc), specs...)
		for _, g := range geo {
			plan = append(plan, speedupPlan(g.traces(sc), specs...)...)
		}
		return plan
	}
	e.Table = func(sc Scale, r Results) (*Table, error) {
		t := &Table{ID: e.ID, Title: tmpl.Title, Columns: comboNames(combos), Notes: slices.Clone(tmpl.Notes)}
		addColumns(t, traces(sc), r.speedups(traces(sc), specs...))
		for _, g := range geo {
			t.AddRow(g.label, geomeans(r.speedups(g.traces(sc), specs...))...)
		}
		return t, nil
	}
	return e
}

// --- Fig. 1: utility of L1-D prefetching ----------------------------------

func init() {
	var rows []speedupRow
	for _, pf := range []string{"ipstride", "bingo", "mlop"} {
		rows = append(rows, gridRow(pf, RunSpec{L2: pf}, RunSpec{L1D: pf + "@l2"}, RunSpec{L1D: pf}))
	}
	register(speedupGrid(Experiment{
		ID:    "fig1",
		Title: "Utility of L1-D prefetching (prefetcher placement)",
		Paper: "Prefetching into the L1 gives 6–13% additional speedup over " +
			"L2-only prefetching; learning at L1 but filling to L2 closes the " +
			"gap to 3–7%.",
	}, Table{
		Title:   "Geomean speedup by prefetcher placement (memory-intensive set)",
		Columns: []string{"at L2", "learn L1, fill L2", "at L1"},
		Notes:   []string{"Paper Fig. 1: L1 placement wins for every prefetcher; expect at-L1 ≥ learn-L1-fill-L2 ≥ at-L2."},
	}, rows...))
}

// --- Fig. 7: L1-only prefetchers -------------------------------------------

func init() {
	var combos []Combo
	for _, pf := range []string{"nl", "ipstride", "stream", "bop", "spp", "mlop", "bingo", "bingo119", "tskid", "ipcp"} {
		combos = append(combos, Combo{Name: pf, L1D: pf})
	}
	register(perTraceGrid(Experiment{
		ID:    "fig7",
		Title: "L1-only prefetchers on memory-intensive traces",
		Paper: "IPCP outperforms all L1 prefetchers except the 119KB Bingo; " +
			"SPP/VLDP (designed for L2) do poorly at L1.",
	}, Table{
		Title: "Per-trace speedup with L1-only prefetching (L2/LLC off)",
		Notes: []string{"Paper Fig. 7: IPCP at or near the top; spp below the offset/footprint prefetchers at L1."},
	}, combos, Scale.memIntensive, geomeanRow{"geomean", Scale.memIntensive}))
}

// --- Fig. 8: multi-level combinations ---------------------------------------

func init() {
	register(perTraceGrid(Experiment{
		ID:    "fig8",
		Title: "Multi-level prefetching (Table III combinations)",
		Paper: "IPCP: +45.1% on memory-intensive traces (next three ≥ +42.5%); " +
			"+22% on the full suite (next three +18.2–18.8%).",
	}, Table{
		Title: "Per-trace speedup with multi-level prefetching",
		Notes: []string{
			"Paper Fig. 8: IPCP leads both geomeans, with the competitors close behind on the memory-intensive set."},
	}, Combos(), Scale.memIntensive,
		geomeanRow{"geomean (mem-intensive)", Scale.memIntensive},
		geomeanRow{"geomean (full suite)", Scale.fullSuite}))
}

func comboNames(cs []Combo) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

// --- Fig. 9: demand-MPKI reduction -------------------------------------------

// comboPlan is every memory-intensive trace alone without prefetching and
// under each combo: what the per-combination averages read.
func comboPlan(sc Scale) []RunSpec {
	var plan []RunSpec
	for _, c := range append([]Combo{baseline}, Combos()...) {
		plan = append(plan, c.onEach(sc.memIntensive())...)
	}
	return plan
}

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Demand MPKI with multi-level prefetching",
		Paper: "All combinations slash demand MPKI at every level; IPCP removes " +
			"the most at L2/LLC.",
		Plan: comboPlan,
		Table: func(sc Scale, r Results) (*Table, error) {
			names := sc.memIntensive()
			t := &Table{
				ID:      "fig9",
				Title:   "Average demand MPKI at L1D / L2 / LLC per combination",
				Columns: []string{"L1D MPKI", "L2 MPKI", "LLC MPKI"},
			}
			for _, c := range append([]Combo{baseline}, Combos()...) {
				var l1, l2, llc float64
				results, err := r.all(c.onEach(names))
				if err != nil {
					return nil, err
				}
				for _, res := range results {
					l1 += res.MPKI("L1D", 0)
					l2 += res.MPKI("L2", 0)
					llc += res.MPKI("LLC", 0)
				}
				n := float64(len(names))
				t.AddRow(c.Name, l1/n, l2/n, llc/n)
			}
			t.Notes = append(t.Notes, "Paper Fig. 9: prefetching reduces MPKI at all levels; baseline row shows the starting point.")
			return t, nil
		},
	})
}

// --- Table IV: coverage and accuracy per combination --------------------------

func init() {
	register(Experiment{
		ID:    "tab4",
		Title: "Prefetch coverage and accuracy (Table IV)",
		Paper: "IPCP: coverage 0.60/0.79/0.83 at L1/L2/LLC, accuracy 0.80 at L1. " +
			"SPP+Perc+DSPatch 0.50/0.75/0.83; MLOP 0.59/...; Bingo accuracy 0.79; TSKID coverage 0.67 at L1.",
		Plan: comboPlan,
		Table: func(sc Scale, r Results) (*Table, error) {
			names := sc.memIntensive()
			t := &Table{
				ID:      "tab4",
				Title:   "Coverage at L1/L2/LLC and L1 accuracy per combination",
				Columns: []string{"cov L1", "cov L2", "cov LLC", "accuracy L1"},
			}
			baseResults, err := r.all(baseline.onEach(names))
			if err != nil {
				return nil, err
			}
			for _, c := range Combos() {
				results, err := r.all(c.onEach(names))
				if err != nil {
					return nil, err
				}
				var c1, c2, c3, acc float64
				accSamples := 0
				for i, res := range results {
					c1 += stats.Coverage(baseResults[i].TotalDemandMisses("L1D"), res.TotalDemandMisses("L1D"))
					c2 += stats.Coverage(baseResults[i].TotalDemandMisses("L2"), res.TotalDemandMisses("L2"))
					c3 += stats.Coverage(baseResults[i].TotalDemandMisses("LLC"), res.TotalDemandMisses("LLC"))
					if a := res.L1D[0].Accuracy(); res.L1D[0].PrefetchFills > 0 {
						acc += a
						accSamples++
					}
				}
				n := float64(len(names))
				if accSamples == 0 {
					accSamples = 1
				}
				t.AddRow(c.Name, c1/n, c2/n, c3/n, acc/float64(accSamples))
			}
			t.Notes = append(t.Notes, "Paper Table IV: IPCP leads L2/LLC coverage with the best L1 accuracy (0.80).")
			return t, nil
		},
	})
}

// --- Storage (Table I / Table III storage column) -----------------------------

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "IPCP hardware budget (Table I)",
		Paper: "740 bytes at L1 + 155 bytes at L2 = 895 bytes total.",
		Plan:  func(Scale) []RunSpec { return nil },
		Table: func(Scale, Results) (*Table, error) {
			t := &Table{
				ID:      "tab1",
				Title:   "IPCP storage budget in bytes (computed from the hardware widths)",
				Columns: []string{"bytes"},
			}
			st := core.ComputeStorage(core.DefaultL1Config(), core.DefaultL2Config())
			t.AddRow("L1 (tables+counters)", float64(st.L1Bytes()))
			t.AddRow("L2", float64(st.L2Bytes()))
			t.AddRow("total", float64(st.TotalBytes()))
			t.Notes = append(t.Notes, fmt.Sprintf("Exact bit budget: %s", st))
			return t, nil
		},
	})
}
