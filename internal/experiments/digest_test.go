package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReport = flag.Bool("update", false, "rewrite the golden the selected test holds (testdata/report.digest, testdata/liveness.golden) from this tree")

// reportDigestFile pins every registered experiment's rendered table at
// reportDigestScale: one line per experiment, its ID and the SHA-256 of
// its Table.Markdown().
var reportDigestFile = filepath.Join("testdata", "report.digest")

// reportDigestScale is small enough to run all of them in seconds and
// still reaches every code path: two traces per set, one mix per
// multi-core category.
var reportDigestScale = Scale{Warmup: 2000, Measure: 4000, MaxTraces: 2, Mixes: 1, Seed: 1}

// TestReportDigests is the experiments layer's golden: it runs every
// registered experiment through RunIDs and compares each table's bytes
// against an earlier tree's. A change to how an experiment plans its
// runs or renders its table, multi-core mixes included, must leave this
// file unedited; only a change that moves simulated output on purpose
// regenerates it (`go test ./internal/experiments -run TestReportDigests
// -update`), and says so.
func TestReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment")
	}
	want := map[string]string{}
	if !*updateReport {
		f, err := os.Open(reportDigestFile)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/experiments -run TestReportDigests -update` to create it)", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			id, sum, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				t.Fatalf("%s: malformed line %q", reportDigestFile, sc.Text())
			}
			want[id] = sum
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	rep, err := RunIDs(context.Background(), NewSession(reportDigestScale), ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, res := range rep.Results {
		if res.Err != nil {
			t.Errorf("%s failed: %v", res.ID, res.Err)
			continue
		}
		sum := sha256.Sum256([]byte(res.Table.Markdown()))
		digest := hex.EncodeToString(sum[:])
		fmt.Fprintf(&b, "%s %s\n", res.ID, digest)
		if *updateReport {
			continue
		}
		if w, ok := want[res.ID]; !ok {
			t.Errorf("no recorded digest for %s", res.ID)
		} else if digest != w {
			t.Errorf("%s: table digest %s, recorded %s: the rendered table moved:\n%s", res.ID, digest, w, res.Table.Markdown())
		}
	}
	if t.Failed() {
		return
	}
	if !*updateReport {
		if len(want) != len(ids) {
			t.Errorf("%s records %d experiments, %d are registered", reportDigestFile, len(want), len(ids))
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(reportDigestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reportDigestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
