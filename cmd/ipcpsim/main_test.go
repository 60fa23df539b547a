package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
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
// (the flag package's usage error), 1 for a run it cannot start, and 130
// for a run interrupted by SIGINT, after flushing the trace collected so
// far.
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
	// A run far too long to finish, interrupted once it is under way.
	out := filepath.Join(t.TempDir(), "out.jsonl")
	cmd := exec.Command(bin, "-workload", "lbm-94", "-measure", "1000000000", "-trace", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		// 200 ms of CPU: long past installing the signal handler.
		ticks, err := cpuTicks(cmd.Process.Pid)
		if err != nil {
			t.Skipf("SIGINT case: %v", err)
		}
		if ticks >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ipcpsim used %d CPU ticks in a minute", ticks)
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var exit *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Errorf("ipcpsim after SIGINT: %v, want exit status 130", err)
	}
	if !strings.Contains(stderr.String(), "interrupted; flushing") {
		t.Errorf("ipcpsim after SIGINT: stderr %q lacks the flushing line", stderr.String())
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("ipcpsim after SIGINT left no trace: %v", err)
	}
}

// cpuTicks reads a process's user plus system CPU time, in clock ticks,
// from /proc/<pid>/stat.
func cpuTicks(pid int) (int, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at state (3);
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.Atoi(f[11])
	stime, err2 := strconv.Atoi(f[12])
	return utime + stime, errors.Join(err1, err2)
}
