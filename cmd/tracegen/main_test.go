package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tracegen: %v\n%s", err, out)
	}
	return bin
}

// TestExitCodes: 1 for a workload it does not know and 1 with nowhere
// to put the records.
func TestExitCodes(t *testing.T) {
	bin := build(t)
	for _, c := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-workload", "nope", "-dump"}, `unknown workload "nope"`},
		{[]string{"-workload", "mcf-994"}, "-o or -dump required"},
	} {
		cmd := exec.Command(bin, c.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("tracegen %v: %v, want exit status 1", c.args, err)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("tracegen %v: stderr %q lacks %q", c.args, stderr.String(), c.stderr)
		}
	}
}

// TestDumpIsDeterministic: one record per line, the same bytes on every
// run.
func TestDumpIsDeterministic(t *testing.T) {
	bin := build(t)
	dump := func() []byte {
		out, err := exec.Command(bin, "-workload", "mcf-994", "-n", "20", "-dump").Output()
		if err != nil {
			t.Fatalf("tracegen -dump: %v", err)
		}
		return out
	}
	first := dump()
	if lines := bytes.Count(first, []byte("\n")); lines != 20 {
		t.Errorf("-dump -n 20 printed %d lines", lines)
	}
	if second := dump(); !bytes.Equal(first, second) {
		t.Errorf("two dumps differ:\n%s\n---\n%s", first, second)
	}
}

// TestWrittenTraceReadsBack: -o writes the generator's first n records,
// and trace.ReadAll recovers exactly those.
func TestWrittenTraceReadsBack(t *testing.T) {
	bin := build(t)
	const n = 500
	path := filepath.Join(t.TempDir(), "lbm.trc")
	if out, err := exec.Command(bin, "-workload", "lbm-94", "-n", "500", "-seed", "3", "-o", path).CombinedOutput(); err != nil {
		t.Fatalf("tracegen -o: %v\n%s", err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Instrs) != n {
		t.Fatalf("read back %d records, want %d", len(got.Instrs), n)
	}
	w, err := workload.Named("lbm-94")
	if err != nil {
		t.Fatal(err)
	}
	if want := trace.Collect(w.New(3), n); !reflect.DeepEqual(got.Instrs, want) {
		t.Error("the written records are not the generator's")
	}
}

// TestCutTraceIsCorrupt: -o writes the record count into the header, so
// a file cut at a record boundary — a shorter trace that is valid
// record by record — reads as corrupt rather than as a shorter trace.
func TestCutTraceIsCorrupt(t *testing.T) {
	bin := build(t)
	path := filepath.Join(t.TempDir(), "lbm.trc")
	if out, err := exec.Command(bin, "-workload", "lbm-94", "-n", "500", "-seed", "3", "-o", path).CombinedOutput(); err != nil {
		t.Fatalf("tracegen -o: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Declared() != 500 {
		t.Fatalf("header declares %d records, want 500", r.Declared())
	}
	// The first 250 records' bytes, as a streamed writer lays them out.
	w, err := workload.Named("lbm-94")
	if err != nil {
		t.Fatal(err)
	}
	var half bytes.Buffer
	tw, err := trace.NewWriter(&half)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range trace.Collect(w.New(3), 250) {
		if err := tw.Write(&in); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadAll(bytes.NewReader(data[:half.Len()])); !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("a trace cut after record 250 of 500 read back with error %v, want ErrCorrupt", err)
	}
}
