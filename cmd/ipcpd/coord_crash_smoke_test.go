package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCoordinatorCrashSmoke is the coordinator's half of "no
// acknowledged work is lost", run by `make dist-smoke` against the real
// binary: a journaling coordinator and two workers take TestDistSmoke's
// 8-point grid, the coordinator is killed -9 with points running on
// both workers, and a restart on the same address, data dir and journal
// must finish the same sweep id with every point done — the points that
// were in flight coalescing onto the workers' jobs — while the
// coordinator itself simulates nothing.
func TestCoordinatorCrashSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ipcpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ipcpd: %v\n%s", err, out)
	}
	// A fixed free port: the restarted coordinator must answer where the
	// workers' agents and the sweep's clients already point.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	coordArgs := []string{
		"-coordinator", "-addr", addr, "-heartbeat", "1s",
		"-data-dir", t.TempDir(), "-journal-dir", t.TempDir(),
	}
	cd := startCoordinator(t, bin, coordArgs)
	workerArgs := []string{
		"-addr", "127.0.0.1:0", "-worker", cd.base,
		"-scale", "quick", "-warmup", "10000", "-measure", "2000000",
		"-workers", "2", "-queue", "32",
	}
	w1 := startDaemon(t, bin, workerArgs)
	w2 := startDaemon(t, bin, workerArgs)
	waitCond(t, 30*time.Second, "2 live workers", func() bool {
		var h struct {
			Workers int `json:"workers"`
		}
		getJSON(t, cd.base+"/healthz", &h)
		return h.Workers == 2
	})

	resp, err := http.Post(cd.base+"/v1/sweeps", "application/json", strings.NewReader(
		`{"workloads":["mcf-994","bwaves-98","lbm-94","gcc-2226"],"l1d":["","ipcp"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || sub.Points != 8 {
		t.Fatalf("POST /v1/sweeps = %d (%+v, %v), want 202 with 8 points", resp.StatusCode, sub, err)
	}

	type sweepView struct {
		Status string `json:"status"`
		Total  int    `json:"total"`
		Done   int    `json:"done"`
		Failed int    `json:"failed"`
		Points []struct {
			Status string          `json:"status"`
			Worker string          `json:"worker"`
			Result json.RawMessage `json:"result"`
		} `json:"points"`
	}
	sweepURL := cd.base + "/v1/sweeps/" + sub.ID
	waitCond(t, 120*time.Second, "points running on both workers", func() bool {
		var v sweepView
		getJSON(t, sweepURL, &v)
		if v.Status == "done" {
			t.Fatal("sweep finished before the kill window (machine too fast for the smoke sizing?)")
		}
		running := map[string]bool{}
		for _, pt := range v.Points {
			if pt.Status == "running" {
				running[pt.Worker] = true
			}
		}
		return len(running) >= 2
	})

	if err := cd.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cd.wait(30 * time.Second); err == nil {
		t.Fatal("SIGKILLed coordinator reported a clean exit")
	}
	cd = startCoordinator(t, bin, coordArgs)

	// The journal brought the sweep back under its id...
	resp, err = http.Get(sweepURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s after the restart = %d, want the replayed sweep", sweepURL, resp.StatusCode)
	}
	// ...and it finishes with every point's result.
	var final sweepView
	waitCond(t, 10*time.Minute, "sweep completion after the restart", func() bool {
		getJSON(t, sweepURL, &final)
		return final.Status == "done"
	})
	if final.Total != 8 || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("replayed sweep total=%d done=%d failed=%d, want 8/8/0", final.Total, final.Done, final.Failed)
	}
	for i, pt := range final.Points {
		if pt.Status != "done" || len(pt.Result) == 0 || string(pt.Result) == "null" {
			t.Fatalf("point %d = %s with result %.60s, want done with a result", i, pt.Status, pt.Result)
		}
	}
	var m struct {
		Session struct {
			Executed *uint64 `json:"executed"`
		} `json:"session"`
	}
	getJSON(t, cd.base+"/metrics", &m)
	if m.Session.Executed == nil || *m.Session.Executed != 0 {
		t.Fatalf("coordinator session.executed = %v, want 0: a coordinator never simulates", m.Session.Executed)
	}

	sigtermAndWait(t, w1)
	sigtermAndWait(t, w2)
	sigtermAndWait(t, cd)
}
