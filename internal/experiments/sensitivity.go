package experiments

import "fmt"

// Each study here runs IPCP (ipcpCombo) with one system knob changed;
// speedupPair changes it on the baseline too.

// ipcpWith is IPCP with one system knob changed.
func ipcpWith(mutate func(*RunSpec)) RunSpec {
	spec := ipcpCombo.on()
	mutate(&spec)
	return spec
}

func init() {
	var repl []speedupRow
	for _, pol := range []string{"lru", "srrip", "drrip", "ship", "hawkeye", "mpppb"} {
		// A small LLC so replacement is actually exercised at
		// sub-million-instruction scales (the paper's 2MB LLC does not
		// fill within a short run).
		repl = append(repl, gridRow(pol, ipcpWith(func(r *RunSpec) { r.LLCRepl, r.LLCSetsPerCore = pol, 512 })))
	}
	register(speedupGrid(Experiment{
		ID:    "sens-repl",
		Title: "LLC replacement policy sensitivity (§VI-C)",
		Paper: "IPCP is resilient to the LLC policy (differences < 1%).",
	}, Table{
		Title:   "IPCP geomean speedup per LLC replacement policy (512KB/core LLC)",
		Columns: []string{"speedup"},
		Notes:   []string{"Paper §VI-C: < 1% spread across policies; MPPPB costs every prefetcher a few percent."},
	}, repl...))

	register(speedupGrid(Experiment{
		ID:    "sens-cache",
		Title: "Cache size sensitivity (§VI-C)",
		Paper: "IPCP is resilient across L1/L2/LLC sizes (≤ ~1% difference; " +
			"~3% absolute drop with an extremely small LLC, for every prefetcher).",
	}, Table{Title: "IPCP geomean speedup per cache configuration", Columns: []string{"speedup"}},
		gridRow("L1D 48KB, L2 512KB, LLC 2MB (paper)", ipcpCombo.on()),
		gridRow("L1D 32KB", ipcpWith(func(r *RunSpec) { r.L1DWays = 8 })),
		gridRow("L2 256KB", ipcpWith(func(r *RunSpec) { r.L2Sets = 512 })),
		gridRow("L2 1MB", ipcpWith(func(r *RunSpec) { r.L2Sets = 2048 })),
		gridRow("LLC 1MB/core", ipcpWith(func(r *RunSpec) { r.LLCSetsPerCore = 1024 })),
		gridRow("LLC 4MB/core", ipcpWith(func(r *RunSpec) { r.LLCSetsPerCore = 4096 })),
		gridRow("LLC 512KB/core (tiny)", ipcpWith(func(r *RunSpec) { r.LLCSetsPerCore = 512 })),
	))

	var dram []speedupRow
	for _, bw := range []float64{3.2, 12.8, 25.6} {
		// MLOP compared at the same bandwidth.
		dram = append(dram, gridRow(fmt.Sprintf("%.1f GB/s", bw),
			ipcpWith(func(r *RunSpec) { r.DRAMGBps = bw }),
			RunSpec{L1D: "mlop", L2: "nl", LLC: "nl-miss", DRAMGBps: bw}))
	}
	register(speedupGrid(Experiment{
		ID:    "sens-dram",
		Title: "DRAM bandwidth sensitivity (§VI-C)",
		Paper: "IPCP beats the second best by ~1% at 3.2GB/s and ~1.5% at " +
			"25GB/s; absolute speedups grow with bandwidth.",
	}, Table{Title: "Geomean speedup per DRAM bandwidth", Columns: []string{"IPCP", "MLOP"}}, dram...))

	var pq []speedupRow
	for _, pair := range [][2]int{{2, 4}, {4, 8}, {8, 16}, {16, 32}} {
		pq = append(pq, gridRow(fmt.Sprintf("PQ=%d MSHR=%d", pair[0], pair[1]),
			ipcpWith(func(r *RunSpec) { r.L1PQ, r.L1MSHR = pair[0], pair[1] })))
	}
	register(speedupGrid(Experiment{
		ID:    "sens-pq",
		Title: "L1 PQ/MSHR sensitivity (§VI-C)",
		Paper: "(2,4) loses only ~2.7% vs the (8,16) baseline; high-MLP traces " +
			"are affected most.",
	}, Table{Title: "IPCP geomean speedup per (PQ, MSHR) pair", Columns: []string{"speedup"}}, pq...))
}
