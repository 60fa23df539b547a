package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/result-digests.txt from this tree")

// digestFile pins what every detMatrix row simulates: one line per row,
// its name and the first 12 hex digits of the SHA-256 of its marshaled
// Result.
var digestFile = filepath.Join("testdata", "result-digests.txt")

// TestResultDigests is the absolute half of the determinism goldens. The
// others compare two runs of this tree (fast-forward vs reference, fork
// vs cold, run vs rerun), so a hot-path bug that hits both sides alike
// passes them; this one compares each row against bytes recorded from an
// earlier tree. Only a change that moves the model on purpose may
// regenerate the file (`go test ./internal/sim -run TestResultDigests
// -update`), and says so.
func TestResultDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateDigests {
		f, err := os.Open(digestFile)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/sim -run TestResultDigests -update` to create it)", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			name, sum, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
			}
			want[name] = sum
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	got := map[string]string{}
	t.Run("rows", func(t *testing.T) {
		for _, d := range detMatrix {
			d := d
			t.Run(d.name, func(t *testing.T) {
				t.Parallel()
				sum := sha256.Sum256(marshal(t, d.run(t, false, nil)))
				digest := hex.EncodeToString(sum[:])[:12]
				mu.Lock()
				got[d.name] = digest
				mu.Unlock()
				if *updateDigests {
					return
				}
				if w, ok := want[d.name]; !ok {
					t.Errorf("no recorded digest for row %s", d.name)
				} else if digest != w {
					t.Errorf("Result digest %s, recorded %s: the simulated bytes moved", digest, w)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	if !*updateDigests {
		if len(want) != len(detMatrix) {
			t.Errorf("%s records %d rows, detMatrix has %d", digestFile, len(want), len(detMatrix))
		}
		return
	}
	var b strings.Builder
	for _, d := range detMatrix {
		fmt.Fprintf(&b, "%s %s\n", d.name, got[d.name])
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
