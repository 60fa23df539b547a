package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"ipcp/internal/stats"
	"ipcp/internal/workload"
)

// wsSpecs lists the runs of mix's weighted speedup under c: the mix
// together, then each trace alone on an equivalent machine (the N-core
// LLC capacity and aggregate DRAM bandwidth; the paper runs alone on the
// N-core system).
func wsSpecs(mix []string, c Combo) []RunSpec {
	specs := []RunSpec{c.on(mix...)}
	for _, w := range mix {
		alone := c.on(w)
		alone.LLCSetsPerCore = 2048 * len(mix)
		alone.DRAMGBps = 12.8 * 2 // the multi-core system's two channels
		specs = append(specs, alone)
	}
	return specs
}

// normalizedWSPlan lists every run normalizedWS reads for the mixes
// under each combo.
func normalizedWSPlan(mixes [][]string, combos ...Combo) []RunSpec {
	var plan []RunSpec
	for _, c := range combos {
		for _, mix := range mixes {
			plan = append(plan, wsSpecs(mix, c)...)
			plan = append(plan, wsSpecs(mix, baseline)...)
		}
	}
	return plan
}

// weightedSpeedup computes the paper's multi-core metric for one mix
// and combo: Σ IPC_together(i)/IPC_alone(i). A failed run degrades it
// to NaN (an n/a cell).
func (r Results) weightedSpeedup(mix []string, c Combo) float64 {
	results, err := r.all(wsSpecs(mix, c))
	if err != nil {
		return math.NaN()
	}
	alone := make([]float64, len(mix))
	for i := range mix {
		alone[i] = results[1+i].IPC[0]
	}
	ws, err := stats.WeightedSpeedup(results[0].IPC, alone)
	if err != nil {
		return math.NaN()
	}
	return ws
}

// normalizedWS returns WS(combo)/WS(no-prefetch) for each mix, one
// column per combo.
func (r Results) normalizedWS(mixes [][]string, combos ...Combo) [][]float64 {
	cols := make([][]float64, len(combos))
	for j, c := range combos {
		cols[j] = make([]float64, len(mixes))
		for i, mix := range mixes {
			if base := r.weightedSpeedup(mix, baseline); base != 0 {
				cols[j][i] = r.weightedSpeedup(mix, c) / base
			}
		}
	}
	return cols
}

// heterogeneousMixes draws deterministic random mixes from the pool.
func heterogeneousMixes(pool []string, cores, count int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	mixes := make([][]string, count)
	for i := range mixes {
		mix := make([]string, cores)
		for j := range mix {
			mix[j] = pool[rng.Intn(len(pool))]
		}
		mixes[i] = mix
	}
	return mixes
}

// --- Fig. 14a: CloudSuite ---------------------------------------------------

// cloudMixes is one homogeneous 4-core mix per CloudSuite trace.
func cloudMixes() [][]string {
	names := workload.Names(workload.Suite("cloud"))
	return homogeneousMixes(names, 4, len(names))
}

func init() {
	register(Experiment{
		ID:    "fig14a",
		Title: "CloudSuite 4-core mixes",
		Paper: "Spatial prefetchers barely help server workloads (≤ ~1.1×); " +
			"SPP+Perc+DSPatch, Bingo and IPCP perform on the same scale.",
		Plan: func(Scale) []RunSpec { return normalizedWSPlan(cloudMixes(), Combos()...) },
		Table: func(_ Scale, r Results) (*Table, error) {
			combos := Combos()
			t := &Table{
				ID:      "fig14a",
				Title:   "Normalized weighted speedup, 4-core CloudSuite (homogeneous)",
				Columns: comboNames(combos),
			}
			cols := r.normalizedWS(cloudMixes(), combos...)
			addColumns(t, workload.Names(workload.Suite("cloud")), cols)
			t.AddRow("geomean", geomeans(cols)...)
			t.Notes = append(t.Notes, "Paper Fig. 14a: gains ≤ ~10%; 'classification' defeats every prefetcher.")
			return t, nil
		},
	})
}

// --- Fig. 14b: CNN/RNN --------------------------------------------------------

func init() {
	register(perTraceGrid(Experiment{
		ID:    "fig14b",
		Title: "CNN/RNN workloads",
		Paper: "Streaming neural-network kernels: IPCP leads (up to ~2.1×) " +
			"because the GS class captures the streams.",
	}, Table{
		Title: "Speedup on CNN/RNN workloads (single core)",
		Notes: []string{"Paper Fig. 14b: IPCP on top thanks to GS; all prefetchers gain on streaming kernels."},
	}, Combos(), nnTraces, geomeanRow{"geomean", nnTraces}))
}

func nnTraces(Scale) []string { return workload.Names(workload.Suite("nn")) }

// --- Fig. 15: multi-core summary -----------------------------------------------

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Multi-core summary",
		Paper: "Across homogeneous + heterogeneous SPEC mixes, CloudSuite and " +
			"NN workloads, IPCP averages +23.4% vs Bingo +20.9% and MLOP +20%.",
		Plan: func(sc Scale) []RunSpec {
			var plan []RunSpec
			for _, cat := range fig15Categories(sc) {
				plan = append(plan, normalizedWSPlan(cat.mixes, Combos()...)...)
			}
			return plan
		},
		Table: func(sc Scale, r Results) (*Table, error) {
			combos := Combos()
			t := &Table{
				ID:      "fig15",
				Title:   "Normalized weighted speedup by workload category",
				Columns: comboNames(combos),
			}
			perCombo := make([][]float64, len(combos))
			for _, cat := range fig15Categories(sc) {
				cols := r.normalizedWS(cat.mixes, combos...)
				t.AddRow(fmt.Sprintf("%s (%d mixes)", cat.label, len(cat.mixes)), geomeans(cols)...)
				for j := range combos {
					perCombo[j] = append(perCombo[j], cols[j]...)
				}
			}
			t.AddRow("overall geomean", geomeans(perCombo)...)
			t.Notes = append(t.Notes, "Paper Fig. 15: IPCP leads the summary with Bingo and MLOP close behind.")
			return t, nil
		},
	})
}

type mixCategory struct {
	label string
	mixes [][]string
}

// fig15Categories are the summary's workload categories. The paper's
// heterogeneous set is half random draws from the ENTIRE suite and half
// draws from the memory-intensive traces.
func fig15Categories(sc Scale) []mixCategory {
	mi, full := sc.memIntensive(), sc.fullSuite()
	return []mixCategory{
		{"homogeneous 4-core", homogeneousMixes(mi, 4, sc.Mixes)},
		{"heterogeneous 4-core (full suite)", heterogeneousMixes(full, 4, max(1, sc.Mixes/2), sc.Seed+100)},
		{"heterogeneous 4-core (mem-intensive)", heterogeneousMixes(mi, 4, max(1, sc.Mixes/2), sc.Seed+150)},
		{"heterogeneous 8-core", heterogeneousMixes(full, 8, max(1, sc.Mixes/2), sc.Seed+200)},
		{"cloud 4-core", homogeneousMixes(workload.Names(workload.Suite("cloud")), 4, sc.Mixes)},
		{"nn 4-core", homogeneousMixes(workload.Names(workload.Suite("nn")), 4, sc.Mixes)},
	}
}

// homogeneousMixes replicates each of up to count pool entries across
// the cores of one mix.
func homogeneousMixes(pool []string, cores, count int) [][]string {
	if count > len(pool) {
		count = len(pool)
	}
	mixes := make([][]string, 0, count)
	for i := 0; i < count; i++ {
		mix := make([]string, cores)
		for j := range mix {
			mix[j] = pool[i]
		}
		mixes = append(mixes, mix)
	}
	return mixes
}
