package experiments

import (
	"fmt"

	"ipcp/internal/core"
)

// Ablations beyond the paper's own studies: the design choices
// DESIGN.md §6 calls out, each swept on the memory-intensive set.

// ipcpRow is a single-column speedupGrid row: IPCP at L1 and L2 with one
// mutation of the paper's L1 configuration.
func ipcpRow(label string, mutate func(*core.L1Config)) speedupRow {
	return gridRow(label, variantSpec(true, mutate))
}

func init() {
	var tables []speedupRow
	for _, scale := range []int{1, 2, 4, 16} {
		tables = append(tables, ipcpRow(fmt.Sprintf("x%d tables", scale), func(c *core.L1Config) {
			c.IPTableEntries *= scale
			c.RSTEntries *= scale
		}))
	}
	register(speedupGrid(Experiment{
		ID:    "sens-tables",
		Title: "Prefetch table size sensitivity (§VI-C)",
		Paper: "Scaling IPCP's tables 2–100× brings only ~0.7% — except for " +
			"large-code outliers like cactusBSSN.",
	}, Table{
		Title:   "IPCP geomean speedup per table scale",
		Columns: []string{"speedup"},
		Notes:   []string{"The rows scale the IP table and the RST; the CSPT's size is 1<<signature width, which is abl-sig's axis."},
	}, tables...))

	register(speedupGrid(Experiment{
		ID:    "abl-rr",
		Title: "Ablation: recent-request filter",
		Paper: "(design choice) The RR filter exists so prefetches never probe " +
			"the bandwidth-starved L1-D; removing it floods the PQ with " +
			"duplicates.",
	}, Table{Title: "IPCP geomean speedup with/without the RR filter", Columns: []string{"speedup"}},
		ipcpRow("RR filter on (paper)", func(c *core.L1Config) {}),
		ipcpRow("RR filter off", func(c *core.L1Config) { c.UseRRFilter = false }),
	))

	var throttle []speedupRow
	for _, wm := range [][2]float64{{0.75, 0.40}, {0.90, 0.60}, {0.50, 0.25}, {1.01, -0.01}} {
		label := fmt.Sprintf("high=%.2f low=%.2f", wm[0], wm[1])
		if wm[1] < 0 {
			label = "throttling off"
		}
		throttle = append(throttle, ipcpRow(label, func(c *core.L1Config) { c.ThrottleHigh, c.ThrottleLow = wm[0], wm[1] }))
	}
	register(speedupGrid(Experiment{
		ID:    "abl-throttle",
		Title: "Ablation: throttling watermarks",
		Paper: "(design choice) The paper's 0.75/0.40 watermarks; wider or " +
			"narrower bands trade coverage against pollution.",
	}, Table{Title: "IPCP geomean speedup per watermark pair", Columns: []string{"speedup"}}, throttle...))

	var region []speedupRow
	for _, bits := range []int{10, 11, 12} {
		region = append(region, ipcpRow(fmt.Sprintf("%dB regions", 1<<bits), func(c *core.L1Config) { c.RegionBits = bits }))
	}
	register(speedupGrid(Experiment{
		ID:    "abl-region",
		Title: "Ablation: GS region size",
		Paper: "(design choice) 2KB regions; the paper notes bigger regions " +
			"train slower for marginal benefit.",
	}, Table{Title: "IPCP geomean speedup per GS region size", Columns: []string{"speedup"}}, region...))

	var degree []speedupRow
	for _, d := range []int{1, 2, 3, 4, 6} {
		degree = append(degree, ipcpRow(fmt.Sprintf("degree %d", d), func(c *core.L1Config) { c.DegreeCPLX = d }))
	}
	register(speedupGrid(Experiment{
		ID:    "abl-degree",
		Title: "Ablation: CPLX prefetch degree",
		Paper: "(§V) Degree 3 is the CPLX sweet spot; 4+ degrades high-MPKI " +
			"irregular traces, which is why the L2 has no CPLX.",
	}, Table{Title: "IPCP geomean speedup per CPLX degree", Columns: []string{"speedup"}}, degree...))

	var sig []speedupRow
	for _, b := range []int{5, 7, 9} {
		sig = append(sig, ipcpRow(fmt.Sprintf("%d-bit signature", b), func(c *core.L1Config) { c.SignatureBits = b }))
	}
	register(speedupGrid(Experiment{
		ID:    "abl-sig",
		Title: "Ablation: CPLX signature width",
		Paper: "(design choice) 7-bit signatures capture the last 7 strides.",
	}, Table{Title: "IPCP geomean speedup per signature width", Columns: []string{"speedup"}}, sig...))
}
