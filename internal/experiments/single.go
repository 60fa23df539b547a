package experiments

import (
	"context"
	"fmt"
	"math"

	"ipcp/internal/stats"
)

// Speedups runs spec on each named workload (spec.Workloads is
// ignored), beside the same system with every prefetcher off, and
// returns the per-trace speedups in names order. It is the one pairing
// of a prefetched run with its baseline: a geomean column is
// stats.Geomean of its result. A failed run (panic, corrupt trace,
// cycle-limit blowup) degrades that trace's entry to NaN — rendered as
// n/a, recorded in Session.Faults(), and carried into any geomean over
// the entries — while the remaining traces stay exact; only an
// interruption aborts the call.
func Speedups(ctx context.Context, s *Session, names []string, spec RunSpec) ([]float64, error) {
	specs := make([]RunSpec, 0, 2*len(names))
	for _, n := range names {
		pf := spec
		pf.Workloads = []string{n}
		base := pf
		base.L1D, base.L2, base.LLC, base.IPCPL1 = "", "", "", nil
		specs = append(specs, base, pf)
	}
	results, errs := s.RunAllPartial(ctx, specs)
	out := make([]float64, len(names))
	for i := range names {
		if err := firstError(errs[2*i], errs[2*i+1]); err != nil {
			if Interrupted(err) {
				return nil, err
			}
			out[i] = math.NaN()
			continue
		}
		out[i] = stats.Speedup(results[2*i+1].IPC[0], results[2*i].IPC[0])
	}
	return out, nil
}

// firstError returns the first non-nil error.
func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// perTraceRows fills t with one row per label and one column per combo
// — per(combo) yields that column's values in label order — and returns
// the columns' geomeans for the caller's summary row.
func perTraceRows(t *Table, labels []string, combos []Combo, per func(Combo) ([]float64, error)) ([]float64, error) {
	cols := make([][]float64, len(combos))
	geo := make([]float64, len(combos))
	for j, c := range combos {
		var err error
		if cols[j], err = per(c); err != nil {
			return nil, err
		}
		geo[j] = stats.Geomean(cols[j])
	}
	for i, label := range labels {
		row := make([]float64, len(combos))
		for j := range combos {
			row[j] = cols[j][i]
		}
		t.AddRow(label, row...)
	}
	return geo, nil
}

// --- Fig. 1: utility of L1-D prefetching ----------------------------------

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Utility of L1-D prefetching (prefetcher placement)",
		Paper: "Prefetching into the L1 gives 6–13% additional speedup over " +
			"L2-only prefetching; learning at L1 but filling to L2 closes the " +
			"gap to 3–7%.",
		Run: runFig1,
	})
}

func runFig1(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	t := &Table{
		ID:      "fig1",
		Title:   "Geomean speedup by prefetcher placement (memory-intensive set)",
		Columns: []string{"at L2", "learn L1, fill L2", "at L1"},
	}
	for _, pf := range []string{"ipstride", "bingo", "mlop"} {
		row := make([]float64, 0, 3)
		for _, placed := range []RunSpec{{L2: pf}, {L1D: pf + "@l2"}, {L1D: pf}} {
			sp, err := Speedups(ctx, s, names, placed)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Geomean(sp))
		}
		t.AddRow(pf, row...)
	}
	t.Notes = append(t.Notes, "Paper Fig. 1: L1 placement wins for every prefetcher; expect at-L1 ≥ learn-L1-fill-L2 ≥ at-L2.")
	return t, nil
}

// --- Fig. 7: L1-only prefetchers -------------------------------------------

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "L1-only prefetchers on memory-intensive traces",
		Paper: "IPCP outperforms all L1 prefetchers except the 119KB Bingo; " +
			"SPP/VLDP (designed for L2) do poorly at L1.",
		Run: runFig7,
	})
}

func runFig7(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	var combos []Combo
	for _, pf := range []string{"nl", "ipstride", "stream", "bop", "spp", "mlop", "bingo", "bingo119", "tskid", "ipcp"} {
		combos = append(combos, Combo{Name: pf, L1D: pf})
	}
	t := &Table{
		ID:      "fig7",
		Title:   "Per-trace speedup with L1-only prefetching (L2/LLC off)",
		Columns: comboNames(combos),
	}
	geo, err := perTraceRows(t, names, combos, func(c Combo) ([]float64, error) { return Speedups(ctx, s, names, c.on()) })
	if err != nil {
		return nil, err
	}
	t.AddRow("geomean", geo...)
	t.Notes = append(t.Notes, "Paper Fig. 7: IPCP at or near the top; spp below the offset/footprint prefetchers at L1.")
	return t, nil
}

// --- Fig. 8: multi-level combinations ---------------------------------------

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Multi-level prefetching (Table III combinations)",
		Paper: "IPCP: +45.1% on memory-intensive traces (next three ≥ +42.5%); " +
			"+22% on the full suite (next three +18.2–18.8%).",
		Run: runFig8,
	})
}

func runFig8(ctx context.Context, s *Session) (*Table, error) {
	combos := Combos()
	names := s.memIntensive()
	t := &Table{
		ID:      "fig8",
		Title:   "Per-trace speedup with multi-level prefetching",
		Columns: comboNames(combos),
	}
	geo, err := perTraceRows(t, names, combos, func(c Combo) ([]float64, error) { return Speedups(ctx, s, names, c.on()) })
	if err != nil {
		return nil, err
	}
	t.AddRow("geomean (mem-intensive)", geo...)

	// Full-suite geomean (no per-trace rows).
	full := s.fullSuite()
	geoFull, err := perTraceRows(t, nil, combos, func(c Combo) ([]float64, error) { return Speedups(ctx, s, full, c.on()) })
	if err != nil {
		return nil, err
	}
	t.AddRow("geomean (full suite)", geoFull...)
	t.Notes = append(t.Notes,
		"Paper Fig. 8: IPCP leads both geomeans, with the competitors close behind on the memory-intensive set.")
	return t, nil
}

func comboNames(cs []Combo) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

// --- Fig. 9: demand-MPKI reduction -------------------------------------------

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Demand MPKI with multi-level prefetching",
		Paper: "All combinations slash demand MPKI at every level; IPCP removes " +
			"the most at L2/LLC.",
		Run: runFig9,
	})
}

func runFig9(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	combos := append([]Combo{baseline}, Combos()...)
	t := &Table{
		ID:      "fig9",
		Title:   "Average demand MPKI at L1D / L2 / LLC per combination",
		Columns: []string{"L1D MPKI", "L2 MPKI", "LLC MPKI"},
	}
	for _, c := range combos {
		var l1, l2, llc float64
		specs := make([]RunSpec, len(names))
		for i, n := range names {
			specs[i] = c.on(n)
		}
		results, err := s.RunAll(ctx, specs)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			l1 += r.MPKI("L1D", 0)
			l2 += r.MPKI("L2", 0)
			llc += r.MPKI("LLC", 0)
		}
		n := float64(len(names))
		t.AddRow(c.Name, l1/n, l2/n, llc/n)
	}
	t.Notes = append(t.Notes, "Paper Fig. 9: prefetching reduces MPKI at all levels; baseline row shows the starting point.")
	return t, nil
}

// --- Table IV: coverage and accuracy per combination --------------------------

func init() {
	register(Experiment{
		ID:    "tab4",
		Title: "Prefetch coverage and accuracy (Table IV)",
		Paper: "IPCP: coverage 0.60/0.79/0.83 at L1/L2/LLC, accuracy 0.80 at L1. " +
			"SPP+Perc+DSPatch 0.50/0.75/0.83; MLOP 0.59/...; Bingo accuracy 0.79; TSKID coverage 0.67 at L1.",
		Run: runTab4,
	})
}

func runTab4(ctx context.Context, s *Session) (*Table, error) {
	names := s.memIntensive()
	t := &Table{
		ID:      "tab4",
		Title:   "Coverage at L1/L2/LLC and L1 accuracy per combination",
		Columns: []string{"cov L1", "cov L2", "cov LLC", "accuracy L1"},
	}
	baseSpecs := make([]RunSpec, len(names))
	for i, n := range names {
		baseSpecs[i] = baseline.on(n)
	}
	baseResults, err := s.RunAll(ctx, baseSpecs)
	if err != nil {
		return nil, err
	}
	for _, c := range Combos() {
		specs := make([]RunSpec, len(names))
		for i, n := range names {
			specs[i] = c.on(n)
		}
		results, err := s.RunAll(ctx, specs)
		if err != nil {
			return nil, err
		}
		var c1, c2, c3, acc float64
		accSamples := 0
		for i, r := range results {
			c1 += stats.Coverage(baseResults[i].TotalDemandMisses("L1D"), r.TotalDemandMisses("L1D"))
			c2 += stats.Coverage(baseResults[i].TotalDemandMisses("L2"), r.TotalDemandMisses("L2"))
			c3 += stats.Coverage(baseResults[i].TotalDemandMisses("LLC"), r.TotalDemandMisses("LLC"))
			if a := r.L1D[0].Accuracy(); r.L1D[0].PrefetchFills > 0 {
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
}

// --- Storage (Table I / Table III storage column) -----------------------------

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "IPCP hardware budget (Table I)",
		Paper: "740 bytes at L1 + 155 bytes at L2 = 895 bytes total.",
		Run:   runTab1,
	})
}

func runTab1(ctx context.Context, s *Session) (*Table, error) {
	t := &Table{
		ID:      "tab1",
		Title:   "IPCP storage budget in bytes (computed from the hardware widths)",
		Columns: []string{"bytes"},
	}
	st := storageBudget()
	t.AddRow("L1 (tables+counters)", float64(st.L1Bytes()))
	t.AddRow("L2", float64(st.L2Bytes()))
	t.AddRow("total", float64(st.TotalBytes()))
	t.Notes = append(t.Notes, fmt.Sprintf("Exact bit budget: %s", st))
	return t, nil
}
