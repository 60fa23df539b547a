package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfilesIdentical holds the three binaries to one PGO profile
// (scripts/pgo.sh writes it to every cmd directory): with one profile the
// packages they share, the standard library first, compile once per
// build instead of once per binary.
func TestProfilesIdentical(t *testing.T) {
	want, err := os.ReadFile("default.pgo")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"experiments", "ipcpd"} {
		got, err := os.ReadFile(filepath.Join("..", cmd, "default.pgo"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cmd/%s/default.pgo differs from cmd/ipcpsim/default.pgo; run `make pgo`", cmd)
		}
	}
}

// TestExitCodes runs the built binary: 2 for a flag it does not know
// (the flag package's usage error), 1 for a run it cannot start.
func TestExitCodes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ipcpsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ipcpsim: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-workload", "nope"}, 1, `unknown workload "nope"`},
	} {
		cmd := exec.Command(bin, c.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("ipcpsim %v: %v, want exit status %d", c.args, err, c.code)
			continue
		}
		if exit.ExitCode() != c.code {
			t.Errorf("ipcpsim %v: exit status %d, want %d", c.args, exit.ExitCode(), c.code)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("ipcpsim %v: stderr %q lacks %q", c.args, stderr.String(), c.stderr)
		}
	}
}
