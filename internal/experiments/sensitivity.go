package experiments

import (
	"context"
	"fmt"

	"ipcp/internal/stats"
)

// Each study here runs IPCP (ipcpCombo) with one system knob changed;
// Speedups changes it on the baseline too.

func init() {
	register(Experiment{
		ID:    "sens-repl",
		Title: "LLC replacement policy sensitivity (§VI-C)",
		Paper: "IPCP is resilient to the LLC policy (differences < 1%).",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "sens-repl", Title: "IPCP geomean speedup per LLC replacement policy (512KB/core LLC)",
				Columns: []string{"speedup"}}
			for _, pol := range []string{"lru", "srrip", "drrip", "ship", "hawkeye", "mpppb"} {
				// A small LLC so replacement is actually exercised at
				// sub-million-instruction scales (the paper's 2MB LLC
				// does not fill within a short run).
				spec := ipcpCombo.on()
				spec.LLCRepl, spec.LLCSetsPerCore = pol, 512
				sp, err := Speedups(ctx, s, s.memIntensive(), spec)
				if err != nil {
					return nil, err
				}
				t.AddRow(pol, stats.Geomean(sp))
			}
			t.Notes = append(t.Notes, "Paper §VI-C: < 1% spread across policies; MPPPB costs every prefetcher a few percent.")
			return t, nil
		},
	})

	register(Experiment{
		ID:    "sens-cache",
		Title: "Cache size sensitivity (§VI-C)",
		Paper: "IPCP is resilient across L1/L2/LLC sizes (≤ ~1% difference; " +
			"~3% absolute drop with an extremely small LLC, for every prefetcher).",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "sens-cache", Title: "IPCP geomean speedup per cache configuration",
				Columns: []string{"speedup"}}
			configs := []struct {
				label string
				mut   func(*RunSpec)
			}{
				{"L1D 48KB, L2 512KB, LLC 2MB (paper)", func(r *RunSpec) {}},
				{"L1D 32KB", func(r *RunSpec) { r.L1DWays = 8 }},
				{"L2 256KB", func(r *RunSpec) { r.L2Sets = 512 }},
				{"L2 1MB", func(r *RunSpec) { r.L2Sets = 2048 }},
				{"LLC 1MB/core", func(r *RunSpec) { r.LLCSetsPerCore = 1024 }},
				{"LLC 4MB/core", func(r *RunSpec) { r.LLCSetsPerCore = 4096 }},
				{"LLC 512KB/core (tiny)", func(r *RunSpec) { r.LLCSetsPerCore = 512 }},
			}
			for _, c := range configs {
				spec := ipcpCombo.on()
				c.mut(&spec)
				sp, err := Speedups(ctx, s, s.memIntensive(), spec)
				if err != nil {
					return nil, err
				}
				t.AddRow(c.label, stats.Geomean(sp))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "sens-dram",
		Title: "DRAM bandwidth sensitivity (§VI-C)",
		Paper: "IPCP beats the second best by ~1% at 3.2GB/s and ~1.5% at " +
			"25GB/s; absolute speedups grow with bandwidth.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "sens-dram", Title: "Geomean speedup per DRAM bandwidth",
				Columns: []string{"IPCP", "MLOP"}}
			names := s.memIntensive()
			for _, bw := range []float64{3.2, 12.8, 25.6} {
				ipcp := ipcpCombo.on()
				ipcp.DRAMGBps = bw
				ipcpSp, err := Speedups(ctx, s, names, ipcp)
				if err != nil {
					return nil, err
				}
				// MLOP comparison at the same bandwidth.
				mlopSp, err := Speedups(ctx, s, names, RunSpec{L1D: "mlop", L2: "nl", LLC: "nl-miss", DRAMGBps: bw})
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%.1f GB/s", bw), stats.Geomean(ipcpSp), stats.Geomean(mlopSp))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "sens-pq",
		Title: "L1 PQ/MSHR sensitivity (§VI-C)",
		Paper: "(2,4) loses only ~2.7% vs the (8,16) baseline; high-MLP traces " +
			"are affected most.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "sens-pq", Title: "IPCP geomean speedup per (PQ, MSHR) pair",
				Columns: []string{"speedup"}}
			for _, pair := range [][2]int{{2, 4}, {4, 8}, {8, 16}, {16, 32}} {
				spec := ipcpCombo.on()
				spec.L1PQ, spec.L1MSHR = pair[0], pair[1]
				sp, err := Speedups(ctx, s, s.memIntensive(), spec)
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("PQ=%d MSHR=%d", pair[0], pair[1]), stats.Geomean(sp))
			}
			return t, nil
		},
	})
}
