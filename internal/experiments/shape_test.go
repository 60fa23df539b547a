//go:build !race

package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The paper's shape as a gate. Each experiment below runs once at Quick
// scale through RunIDs, and a predicate over its table turns the shape
// the paper reports into verdicts. A failing verdict quotes the sentence
// the table states (its Notes, or the experiment's Paper summary) beside
// the numbers that broke it.
//
// "Within noise" is a fixed 1 % (shapeNoise) until each table carries a
// measured seed spread. The race detector multiplies the cost of these
// simulations, so the file is built without it (make fidelity).

// quickSession is the one Quick session the fidelity tests share
// (TestShape, TestKnobsMove), so a run both read simulates once.
var quickSession = sync.OnceValue(func() *Session { return NewSession(Quick) })

// shapeNoise is the fixed relative margin that counts as "within noise".
const shapeNoise = 0.01

// A verdict is one checked claim about a table. key is "id/subject";
// detail gives the numbers either way.
type verdict struct {
	key    string
	ok     bool
	detail string
}

// A shape is one experiment's predicate and the sentence it enforces.
type shape struct {
	note  string
	check func(t *Table) []verdict
}

// expectedFailures are the verdicts that fail at Quick scale today, each
// with the numbers measured when it was recorded. Such a verdict is
// logged, not failed; one that starts passing fails the test, so a
// change in either direction is noticed and this list stays true.
var expectedFailures = map[string]string{
	"fig1/ipstride": "at-L1 1.103, learn-L1-fill-L2 1.086, at-L2 1.125",
	"fig1/mlop":     "at-L1 1.278, learn-L1-fill-L2 1.176, at-L2 1.305",
	"fig1/bingo":    "at-L1 1.110, learn-L1-fill-L2 1.078, at-L2 1.097",
	"fig15/ws>1": "overall geomean SPP+Perc+DSPatch 0.857, MLOP 0.839, Bingo 0.907, " +
		"TSKID 0.909, IPCP 0.939",
}

var shapes = map[string]shape{
	"fig1": {
		note: "Paper Fig. 1: L1 placement wins for every prefetcher; expect at-L1 ≥ learn-L1-fill-L2 ≥ at-L2.",
		check: func(t *Table) (vs []verdict) {
			l2, fill, l1 := col(t, "at L2"), col(t, "learn L1, fill L2"), col(t, "at L1")
			for _, r := range t.Rows {
				vs = append(vs, verdict{"fig1/" + r.Label,
					r.Values[l1] >= r.Values[fill] && r.Values[fill] >= r.Values[l2],
					fmt.Sprintf("at-L1 %.3f, learn-L1-fill-L2 %.3f, at-L2 %.3f", r.Values[l1], r.Values[fill], r.Values[l2])})
			}
			return vs
		},
	},
	"fig7": {
		note: "Paper Fig. 7: IPCP at or near the top; spp below the offset/footprint prefetchers at L1.",
		check: func(t *Table) []verdict {
			// The paper's one exception is the 119 KB Bingo.
			geo := row(t, "geomean")
			return []verdict{leads(t, "fig7/ipcp-leads", geo, "ipcp", 0, "bingo119")}
		},
	},
	"fig8": {
		note: "Paper Fig. 8: IPCP leads both geomeans, with the competitors close behind on the memory-intensive set.",
		check: func(t *Table) (vs []verdict) {
			for _, label := range []string{"geomean (mem-intensive)", "geomean (full suite)"} {
				geo := row(t, label)
				vs = append(vs,
					verdict{"fig8/positive " + label, slices.Min(geo.Values) > 1,
						fmt.Sprintf("%s: %s", label, cells(t, geo))},
					leads(t, "fig8/ipcp-leads "+label, geo, "IPCP", shapeNoise))
			}
			// IPCP is the last column and shows a speedup at any scale.
			geo := row(t, "geomean (mem-intensive)")
			ipcp := geo.Values[len(geo.Values)-1]
			return append(vs, verdict{"fig8/ipcp>1", ipcp > 1.0,
				fmt.Sprintf("IPCP geomean speedup = %.3f, want > 1", ipcp)})
		},
	},
	"fig9": {
		note: "Paper Fig. 9: prefetching reduces MPKI at all levels; baseline row shows the starting point.",
		check: func(t *Table) (vs []verdict) {
			base := row(t, "no-prefetch")
			for _, r := range t.Rows {
				if r.Label == base.Label {
					continue
				}
				ok := true
				for i, v := range r.Values {
					ok = ok && v < base.Values[i]
				}
				vs = append(vs, verdict{"fig9/" + r.Label, ok,
					fmt.Sprintf("%s MPKI %s against no-prefetch %s", r.Label, cells(t, r), cells(t, base))})
			}
			return vs
		},
	},
	"fig10": {
		note: "Paper Fig. 10: averages 0.60 / 0.795 / 0.83; irregular traces near zero.",
		check: func(t *Table) []verdict {
			avg := row(t, "average")
			vs := []verdict{{"fig10/monotone", avg.Values[0] <= avg.Values[1] && avg.Values[1] <= avg.Values[2],
				"average coverage " + cells(t, avg)}}
			// A coverage is a fraction of misses: never above 1.
			for _, r := range t.Rows {
				vs = append(vs, verdict{"fig10/bounded " + r.Label, slices.Max(r.Values) <= 1.0,
					fmt.Sprintf("%s: coverage > 1: %v", r.Label, r.Values)})
			}
			return vs
		},
	},
	"fig12": {
		note: "Paper Fig. 12: CS and GS dominate; CPLX carries mcf-1536-style traces; NL is a small remainder.",
		check: func(t *Table) []verdict {
			all := row(t, "overall")
			share := func(c string) float64 { return all.Values[col(t, c)] }
			// The shares are fractions of one whole.
			sum := 0.0
			for _, v := range all.Values {
				sum += v
			}
			return []verdict{
				{"fig12/cs+gs", share("CS")+share("GS") > share("CPLX")+share("NL"), "overall " + cells(t, all)},
				{"fig12/in-range", slices.Min(all.Values) >= 0 && slices.Max(all.Values) <= 1,
					fmt.Sprintf("class share out of range: %v", all.Values)},
				{"fig12/sum", sum >= 0.99 && sum <= 1.01, fmt.Sprintf("class shares sum to %.3f, want 1", sum)},
			}
		},
	},
	"fig13a": {
		note: "Paper Fig. 13a: the bouquet beats every class in isolation, and the L2 IPCP adds on top.",
		check: func(t *Table) []verdict {
			bouquet := row(t, "IPCP L1 (full bouquet)").Values[0]
			withL2 := row(t, "IPCP L1+L2").Values[0]
			vs := []verdict{{"fig13a/l2-adds", bouquet < withL2,
				fmt.Sprintf("bouquet %.3f, IPCP L1+L2 %.3f", bouquet, withL2)}}
			for _, r := range t.Rows {
				if strings.HasSuffix(r.Label, " only") {
					vs = append(vs, verdict{"fig13a/" + r.Label, r.Values[0] <= bouquet,
						fmt.Sprintf("%s %.3f, bouquet %.3f", r.Label, r.Values[0], bouquet)})
				}
			}
			return vs
		},
	},
	"fig13b": {
		note: "Paper Fig. 13b: the GS-first order wins; disabling metadata costs ~3.1% on memory-intensive traces.",
		check: func(t *Table) []verdict {
			paper := row(t, "GS>CS>CPLX>NL (paper)").Values[0]
			off := row(t, "paper order, metadata off").Values[0]
			best := slices.MaxFunc(t.Rows, func(a, b Row) int { return cmp.Compare(a.Values[0], b.Values[0]) })
			return []verdict{
				{"fig13b/gs-first", paper >= best.Values[0],
					fmt.Sprintf("paper order %.3f, %s %.3f", paper, best.Label, best.Values[0])},
				{"fig13b/metadata", off < paper, fmt.Sprintf("metadata off %.3f, paper order %.3f", off, paper)},
			}
		},
	},
	"fig14b": {
		note: "Paper Fig. 14b: IPCP on top thanks to GS; all prefetchers gain on streaming kernels.",
		check: func(t *Table) []verdict {
			return []verdict{leads(t, "fig14b/ipcp-leads", row(t, "geomean"), "IPCP", 0)}
		},
	},
	"tab1": {
		note: "740 bytes at L1 + 155 bytes at L2 = 895 bytes total.",
		check: func(t *Table) []verdict {
			l1, l2 := row(t, "L1 (tables+counters)").Values[0], row(t, "L2").Values[0]
			total := row(t, "total").Values
			return []verdict{
				{"tab1/budget", l1 == 740 && l2 == 155, fmt.Sprintf("L1 %.0f B, L2 %.0f B", l1, l2)},
				{"tab1/total", total[0] == 895, fmt.Sprintf("tab1 total = %v, want 895 bytes", total)},
			}
		},
	},
	"sens-repl": {
		note: "Paper §VI-C: < 1% spread across policies; MPPPB costs every prefetcher a few percent.",
		check: func(t *Table) []verdict {
			lo := slices.MinFunc(t.Rows, func(a, b Row) int { return cmp.Compare(a.Values[0], b.Values[0]) })
			hi := slices.MaxFunc(t.Rows, func(a, b Row) int { return cmp.Compare(a.Values[0], b.Values[0]) })
			spread := hi.Values[0]/lo.Values[0] - 1
			return []verdict{{"sens-repl/spread", spread < shapeNoise,
				fmt.Sprintf("spread %.2f%% (%s %.3f, %s %.3f)", 100*spread, hi.Label, hi.Values[0], lo.Label, lo.Values[0])}}
		},
	},
	"fig15": {
		note: "Paper Fig. 15: IPCP leads the summary with Bingo and MLOP close behind.",
		check: func(t *Table) []verdict {
			all := row(t, "overall geomean")
			// The paper's averages are all gains: IPCP +23.4 %, Bingo
			// +20.9 %, MLOP +20 %.
			return []verdict{
				leads(t, "fig15/ipcp-leads", all, "IPCP", 0),
				{"fig15/ws>1", slices.Min(all.Values) > 1, "overall geomean " + cells(t, all)},
			}
		},
	},
}

// TestShape runs every experiment in shapes at Quick and holds each
// verdict to the paper, bar the recorded expected failures.
func TestShape(t *testing.T) {
	var ids []string
	for id := range shapes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rep, err := RunIDs(context.Background(), quickSession(), ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, res := range rep.Results {
		t.Run(res.ID, func(t *testing.T) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			sh := shapes[res.ID]
			if e, _ := ByID(res.ID); !slices.Contains(res.Table.Notes, sh.note) && e.Paper != sh.note {
				t.Errorf("%s no longer states %q; update its shape", res.ID, sh.note)
			}
			for _, v := range sh.check(res.Table) {
				seen[v.key] = true
				recorded, expected := expectedFailures[v.key]
				switch {
				case !v.ok && !expected:
					t.Errorf("%s: %s\n\t%s", v.key, sh.note, v.detail)
				case v.ok && expected:
					t.Errorf("%s holds now (%s), but is recorded as an expected failure (%s); delete it from expectedFailures",
						v.key, v.detail, recorded)
				case !v.ok:
					t.Logf("%s: expected failure: %s (recorded: %s)", v.key, v.detail, recorded)
				}
			}
		})
	}
	for key := range expectedFailures {
		if !seen[key] {
			t.Errorf("expected failure %s names no verdict", key)
		}
	}
}

// col returns the index of the named column; a missing one panics the
// check, which is a broken test, not a broken shape.
func col(t *Table, name string) int {
	i := slices.Index(t.Columns, name)
	if i < 0 {
		panic(fmt.Sprintf("%s has no column %q (columns %q)", t.ID, name, t.Columns))
	}
	return i
}

// row returns the labelled row, panicking like col when it is missing.
func row(t *Table, label string) Row {
	r, ok := t.Find(label)
	if !ok {
		panic(fmt.Sprintf("%s has no row %q", t.ID, label))
	}
	return r
}

// leads is the verdict that column who is at least the largest value
// in r among the other columns, bar except, less a relative margin.
func leads(t *Table, key string, r Row, who string, margin float64, except ...string) verdict {
	mine := r.Values[col(t, who)]
	best, bestCol := 0.0, ""
	for i, v := range r.Values {
		if c := t.Columns[i]; c != who && !slices.Contains(except, c) && v > best {
			best, bestCol = v, c
		}
	}
	return verdict{key, mine >= best*(1-margin), fmt.Sprintf("%s: %s %.3f, best other %s %.3f", r.Label, who, mine, bestCol, best)}
}

// cells renders r's values against the column names.
func cells(t *Table, r Row) string {
	parts := make([]string, len(r.Values))
	for i, v := range r.Values {
		parts[i] = fmt.Sprintf("%s %.3f", t.Columns[i], v)
	}
	return strings.Join(parts, ", ")
}
