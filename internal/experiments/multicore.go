package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ipcp/internal/stats"
	"ipcp/internal/workload"
)

// weightedSpeedup computes the paper's multi-core metric for one mix
// and combo: Σ IPC_together(i)/IPC_alone(i), where "alone" runs the
// trace with the same prefetchers on an equivalent machine (the
// N-core LLC capacity and aggregate DRAM bandwidth; the paper runs
// alone on the N-core system).
func weightedSpeedup(ctx context.Context, s *Session, mix []string, c Combo) (float64, error) {
	n := len(mix)
	specs := []RunSpec{c.on(mix...)}
	for _, w := range mix {
		alone := c.on(w)
		alone.LLCSetsPerCore = 2048 * n
		alone.DRAMGBps = 12.8 * 2 // the multi-core system's two channels
		specs = append(specs, alone)
	}
	results, errs := s.RunAllPartial(ctx, specs)
	if err := firstError(errs...); err != nil {
		// A failed run degrades this mix's metric to NaN (an n/a cell);
		// only cancellation aborts the experiment.
		if Interrupted(err) {
			return 0, err
		}
		return math.NaN(), nil
	}
	together := results[0].IPC
	alone := make([]float64, n)
	for i := 0; i < n; i++ {
		alone[i] = results[1+i].IPC[0]
	}
	return stats.WeightedSpeedup(together, alone)
}

// normalizedWS returns WS(combo)/WS(no-prefetch) for a mix.
func normalizedWS(ctx context.Context, s *Session, mix []string, c Combo) (float64, error) {
	ws, err := weightedSpeedup(ctx, s, mix, c)
	if err != nil {
		return 0, err
	}
	base, err := weightedSpeedup(ctx, s, mix, baseline)
	if err != nil {
		return 0, err
	}
	if base == 0 {
		return 0, nil
	}
	return ws / base, nil
}

// normalizedWSAll evaluates normalizedWS for many mixes concurrently
// (each mix's runs already fan out; this overlaps the mixes too).
func normalizedWSAll(ctx context.Context, s *Session, mixes [][]string, c Combo) ([]float64, error) {
	out := make([]float64, len(mixes))
	errs := make([]error, len(mixes))
	var wg sync.WaitGroup
	for i := range mixes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = normalizedWS(ctx, s, mixes[i], c)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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

func init() {
	register(Experiment{
		ID:    "fig14a",
		Title: "CloudSuite 4-core mixes",
		Paper: "Spatial prefetchers barely help server workloads (≤ ~1.1×); " +
			"SPP+Perc+DSPatch, Bingo and IPCP perform on the same scale.",
		Run: runFig14a,
	})
}

func runFig14a(ctx context.Context, s *Session) (*Table, error) {
	combos := Combos()
	t := &Table{
		ID:      "fig14a",
		Title:   "Normalized weighted speedup, 4-core CloudSuite (homogeneous)",
		Columns: comboNames(combos),
	}
	names := workload.Names(workload.Suite("cloud"))
	mixes := make([][]string, len(names))
	for i, w := range names {
		mixes[i] = []string{w, w, w, w}
	}
	geo, err := perTraceRows(t, names, combos, func(c Combo) ([]float64, error) { return normalizedWSAll(ctx, s, mixes, c) })
	if err != nil {
		return nil, err
	}
	t.AddRow("geomean", geo...)
	t.Notes = append(t.Notes, "Paper Fig. 14a: gains ≤ ~10%; 'classification' defeats every prefetcher.")
	return t, nil
}

// --- Fig. 14b: CNN/RNN --------------------------------------------------------

func init() {
	register(Experiment{
		ID:    "fig14b",
		Title: "CNN/RNN workloads",
		Paper: "Streaming neural-network kernels: IPCP leads (up to ~2.1×) " +
			"because the GS class captures the streams.",
		Run: runFig14b,
	})
}

func runFig14b(ctx context.Context, s *Session) (*Table, error) {
	combos := Combos()
	names := workload.Names(workload.Suite("nn"))
	t := &Table{
		ID:      "fig14b",
		Title:   "Speedup on CNN/RNN workloads (single core)",
		Columns: comboNames(combos),
	}
	geo, err := perTraceRows(t, names, combos, func(c Combo) ([]float64, error) { return Speedups(ctx, s, names, c.on()) })
	if err != nil {
		return nil, err
	}
	t.AddRow("geomean", geo...)
	t.Notes = append(t.Notes, "Paper Fig. 14b: IPCP on top thanks to GS; all prefetchers gain on streaming kernels.")
	return t, nil
}

// --- Fig. 15: multi-core summary -----------------------------------------------

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Multi-core summary",
		Paper: "Across homogeneous + heterogeneous SPEC mixes, CloudSuite and " +
			"NN workloads, IPCP averages +23.4% vs Bingo +20.9% and MLOP +20%.",
		Run: runFig15,
	})
}

func runFig15(ctx context.Context, s *Session) (*Table, error) {
	combos := Combos()
	t := &Table{
		ID:      "fig15",
		Title:   "Normalized weighted speedup by workload category",
		Columns: comboNames(combos),
	}
	mi := s.memIntensive()

	// The paper's heterogeneous set is half random draws from the
	// ENTIRE suite and half draws from the memory-intensive traces.
	full := s.fullSuite()
	categories := []struct {
		label string
		mixes [][]string
	}{
		{"homogeneous 4-core", homogeneousMixes(mi, 4, s.Scale.Mixes)},
		{"heterogeneous 4-core (full suite)", heterogeneousMixes(full, 4, max(1, s.Scale.Mixes/2), s.Scale.Seed+100)},
		{"heterogeneous 4-core (mem-intensive)", heterogeneousMixes(mi, 4, max(1, s.Scale.Mixes/2), s.Scale.Seed+150)},
		{"heterogeneous 8-core", heterogeneousMixes(full, 8, max(1, s.Scale.Mixes/2), s.Scale.Seed+200)},
		{"cloud 4-core", homogeneousMixes(workload.Names(workload.Suite("cloud")), 4, s.Scale.Mixes)},
		{"nn 4-core", homogeneousMixes(workload.Names(workload.Suite("nn")), 4, s.Scale.Mixes)},
	}

	perCombo := make([][]float64, len(combos))
	for _, cat := range categories {
		row := make([]float64, len(combos))
		for j, c := range combos {
			vals, err := normalizedWSAll(ctx, s, cat.mixes, c)
			if err != nil {
				return nil, err
			}
			row[j] = stats.Geomean(vals)
			perCombo[j] = append(perCombo[j], vals...)
		}
		t.AddRow(fmt.Sprintf("%s (%d mixes)", cat.label, len(cat.mixes)), row...)
	}
	overall := make([]float64, len(combos))
	for j := range combos {
		overall[j] = stats.Geomean(perCombo[j])
	}
	t.AddRow("overall geomean", overall...)
	t.Notes = append(t.Notes, "Paper Fig. 15: IPCP leads the summary with Bingo and MLOP close behind.")
	return t, nil
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
