//go:build !race

package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Knob liveness: a sensitivity or ablation row whose variant simulates
// byte-for-byte the same as the default row is no evidence of
// resilience, only of a knob that never reached the workload. For every
// row of the speedupGrid experiments that vary one knob, TestKnobsMove
// counts the (column, trace) cells whose measured run differs from the
// reference row's (the paper's default, see isPaperDefault), and holds the counts to testdata/liveness.golden in
// both directions: a change that makes a knob bite, or one go inert,
// shows up as a moved count (`go test -run TestKnobsMove -update`
// records the new counts).

// knobIDs are the speedupGrid experiments whose rows vary a knob; fig1,
// the other speedupGrid, compares placements.
var knobIDs = []string{
	"abl-degree", "abl-region", "abl-rr", "abl-sig", "abl-throttle", "fig13a",
	"fig13b", "sens-cache", "sens-dram", "sens-pq", "sens-repl", "sens-tables",
}

const livenessGolden = "testdata/liveness.golden"

// isPaperDefault reports whether spec is the paper's IPCP on the paper's
// system. Key folds every spelling of that run onto one — an explicit
// ipcp_l1 equal to the paper's, a system knob at its default value
// (PQ=8 MSHR=16, say). The reference row is the one that is, else the
// first.
func isPaperDefault(spec RunSpec) bool {
	paper := ipcpCombo.on()
	paper.Workloads = spec.Workloads
	return spec.Key() == paper.Key()
}

func TestKnobsMove(t *testing.T) {
	s := quickSession()
	rep, err := RunIDs(context.Background(), s, knobIDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// measured is a run's simulated output: its JSON (which leaves the
	// scheduler's self-profile out) without the IPCP introspection
	// snapshots, which describe the prefetcher rather than the run.
	measured := func(spec RunSpec) []byte {
		res, err := s.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		r := *res
		r.IPCPL1, r.IPCPL2 = nil, nil
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var got []string
	for _, res := range rep.Results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		e, _ := ByID(res.ID)
		// The plan is each row's (baseline, prefetched) pairs in row
		// order, every row the same number of columns × traces.
		plan, rows := e.Plan(Quick), res.Table.Rows
		if len(rows) == 0 || len(plan)%len(rows) != 0 {
			t.Fatalf("%s: %d planned runs do not split into %d rows", res.ID, len(plan), len(rows))
		}
		per := len(plan) / len(rows)
		cells := func(row int) []RunSpec {
			var pf []RunSpec
			for i := row*per + 1; i < (row+1)*per; i += 2 {
				pf = append(pf, plan[i])
			}
			return pf
		}
		ref := 0
		for i := range rows {
			if isPaperDefault(cells(i)[0]) {
				ref = i
				break
			}
		}
		want := make([][]byte, 0, per/2)
		for _, spec := range cells(ref) {
			want = append(want, measured(spec))
		}
		for i, row := range rows {
			moved := 0
			for j, spec := range cells(i) {
				if !bytes.Equal(measured(spec), want[j]) {
					moved++
				}
			}
			got = append(got, fmt.Sprintf("%s %q %d/%d", res.ID, row.Label, moved, len(want)))
		}
	}

	if *updateReport {
		body := "# id \"row\" cells-differing-from-the-reference-row/cells, at Quick (TestKnobsMove)\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(livenessGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(livenessGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			golden = append(golden, line)
		}
	}
	recorded := map[string]string{}
	for _, line := range golden {
		recorded[line[:strings.LastIndexByte(line, ' ')]] = line
	}
	for _, line := range got {
		row := line[:strings.LastIndexByte(line, ' ')]
		if rec, ok := recorded[row]; !ok {
			t.Errorf("row not in %s: %s", livenessGolden, line)
		} else if rec != line {
			t.Errorf("knob liveness moved: %s (recorded: %s)", line, rec[len(row)+1:])
		}
		delete(recorded, row)
	}
	for row := range recorded {
		t.Errorf("%s records a row no experiment has: %s", livenessGolden, row)
	}
}
