package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipcp/internal/experiments"
)

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	return bin
}

// TestExitCodes runs the built binary: 2 for a flag it does not know
// (the flag package's usage error), 1 for an experiment it does not have.
func TestExitCodes(t *testing.T) {
	bin := build(t)
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-run", "nope"}, 1, `unknown id "nope"`},
	} {
		cmd := exec.Command(bin, c.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("experiments %v: %v, want exit status %d", c.args, err, c.code)
			continue
		}
		if exit.ExitCode() != c.code {
			t.Errorf("experiments %v: exit status %d, want %d", c.args, exit.ExitCode(), c.code)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("experiments %v: stderr %q lacks %q", c.args, stderr.String(), c.stderr)
		}
	}
}

// TestListAndTab1: -list names exactly the registered experiments, and
// Table I's storage budget totals the paper's 895 bytes.
func TestListAndTab1(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("experiments -list: %v", err)
	}
	var listed, registered []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n")[1:] {
		listed = append(listed, strings.Fields(line)[0])
	}
	for _, e := range experiments.All() {
		registered = append(registered, e.ID)
	}
	if !slices.Equal(listed, registered) {
		t.Errorf("-list names %v, want the registry %v", listed, registered)
	}

	out, err = exec.Command(bin, "-run", "tab1").Output()
	if err != nil {
		t.Fatalf("experiments -run tab1: %v", err)
	}
	if !strings.Contains(string(out), "| total | 895.000 |") {
		t.Errorf("tab1 lacks the 895-byte total:\n%s", out)
	}
}

// TestStdoutIsReportMarkdown: the CLI prints exactly Report.Markdown —
// the renderer POST /v1/experiments returns too — so the two carry the
// same tables and the same "Paper:" lines.
func TestStdoutIsReportMarkdown(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "-run", "tab1").Output()
	if err != nil {
		t.Fatalf("experiments -run tab1: %v", err)
	}
	rep, err := experiments.RunIDs(context.Background(), experiments.NewSession(experiments.Quick), []string{"tab1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.Markdown(); string(out) != want {
		t.Errorf("experiments -run tab1 stdout:\n%s\nwant Report.Markdown:\n%s", out, want)
	}
	if !strings.Contains(string(out), "\nPaper: ") {
		t.Errorf("tab1 report lacks its Paper line:\n%s", out)
	}
}
