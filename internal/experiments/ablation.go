package experiments

import (
	"context"
	"fmt"

	"ipcp/internal/core"
	"ipcp/internal/stats"
)

// Ablations beyond the paper's own studies: the design choices
// DESIGN.md §6 calls out, each swept on the memory-intensive set.

func init() {
	register(Experiment{
		ID:    "sens-tables",
		Title: "Prefetch table size sensitivity (§VI-C)",
		Paper: "Scaling IPCP's tables 2–100× brings only ~0.7% — except for " +
			"large-code outliers like cactusBSSN.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "sens-tables", Title: "IPCP geomean speedup per table scale",
				Columns: []string{"speedup"}}
			for _, scale := range []int{1, 2, 4, 16} {
				sp, err := Speedups(ctx, s, s.memIntensive(), variantSpec(true, func(c *core.L1Config) {
					c.IPTableEntries *= scale
					c.RSTEntries *= scale
				}))
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("x%d tables", scale), stats.Geomean(sp))
			}
			t.Notes = append(t.Notes, "The rows scale the IP table and the RST; the CSPT's size is 1<<signature width, which is abl-sig's axis.")
			return t, nil
		},
	})

	register(Experiment{
		ID:    "abl-rr",
		Title: "Ablation: recent-request filter",
		Paper: "(design choice) The RR filter exists so prefetches never probe " +
			"the bandwidth-starved L1-D; removing it floods the PQ with " +
			"duplicates.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "abl-rr", Title: "IPCP geomean speedup with/without the RR filter",
				Columns: []string{"speedup"}}
			on, err := Speedups(ctx, s, s.memIntensive(), variantSpec(true, func(c *core.L1Config) {}))
			if err != nil {
				return nil, err
			}
			off, err := Speedups(ctx, s, s.memIntensive(), variantSpec(true, func(c *core.L1Config) {
				c.UseRRFilter = false
			}))
			if err != nil {
				return nil, err
			}
			t.AddRow("RR filter on (paper)", stats.Geomean(on))
			t.AddRow("RR filter off", stats.Geomean(off))
			return t, nil
		},
	})

	register(Experiment{
		ID:    "abl-throttle",
		Title: "Ablation: throttling watermarks",
		Paper: "(design choice) The paper's 0.75/0.40 watermarks; wider or " +
			"narrower bands trade coverage against pollution.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "abl-throttle", Title: "IPCP geomean speedup per watermark pair",
				Columns: []string{"speedup"}}
			for _, wm := range [][2]float64{{0.75, 0.40}, {0.90, 0.60}, {0.50, 0.25}, {1.01, -0.01}} {
				label := fmt.Sprintf("high=%.2f low=%.2f", wm[0], wm[1])
				if wm[1] < 0 {
					label = "throttling off"
				}
				sp, err := Speedups(ctx, s, s.memIntensive(), variantSpec(true, func(c *core.L1Config) {
					c.ThrottleHigh, c.ThrottleLow = wm[0], wm[1]
				}))
				if err != nil {
					return nil, err
				}
				t.AddRow(label, stats.Geomean(sp))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "abl-region",
		Title: "Ablation: GS region size",
		Paper: "(design choice) 2KB regions; the paper notes bigger regions " +
			"train slower for marginal benefit.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "abl-region", Title: "IPCP geomean speedup per GS region size",
				Columns: []string{"speedup"}}
			for _, bits := range []int{10, 11, 12} {
				sp, err := Speedups(ctx, s, s.memIntensive(), variantSpec(true, func(c *core.L1Config) { c.RegionBits = bits }))
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%dB regions", 1<<bits), stats.Geomean(sp))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "abl-degree",
		Title: "Ablation: CPLX prefetch degree",
		Paper: "(§V) Degree 3 is the CPLX sweet spot; 4+ degrades high-MPKI " +
			"irregular traces, which is why the L2 has no CPLX.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "abl-degree", Title: "IPCP geomean speedup per CPLX degree",
				Columns: []string{"speedup"}}
			for _, d := range []int{1, 2, 3, 4, 6} {
				sp, err := Speedups(ctx, s, s.memIntensive(), variantSpec(true, func(c *core.L1Config) { c.DegreeCPLX = d }))
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("degree %d", d), stats.Geomean(sp))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "abl-sig",
		Title: "Ablation: CPLX signature width",
		Paper: "(design choice) 7-bit signatures capture the last 7 strides.",
		Run: func(ctx context.Context, s *Session) (*Table, error) {
			t := &Table{ID: "abl-sig", Title: "IPCP geomean speedup per signature width",
				Columns: []string{"speedup"}}
			for _, b := range []int{5, 7, 9} {
				sp, err := Speedups(ctx, s, s.memIntensive(), variantSpec(true, func(c *core.L1Config) {
					c.SignatureBits, c.CSPTEntries = b, 1<<b
				}))
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%d-bit signature", b), stats.Geomean(sp))
			}
			return t, nil
		},
	})
}
