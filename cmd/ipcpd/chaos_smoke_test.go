package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestChaosSmoke is the crash/restart exercise behind `make
// chaos-smoke`, run against the real binary:
//
//  1. kill -9 mid-burst with ≥16 acknowledged jobs in mixed states,
//     restart, and demand every acknowledged job reach a terminal
//     state under its original ID — zero lost, finished work served
//     from the journal rather than re-executed;
//  2. corrupt the checkpoint store and demand quarantine + recompute
//     — a damaged checkpoint is never served;
//  3. crash the daemon with an injected fault (IPCPD_CHAOS) in the
//     queue-handoff window and demand the acknowledged prefix
//     survives the restart.
func TestChaosSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ipcpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ipcpd: %v\n%s", err, out)
	}
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-scale", "quick",
		"-measure", "1000000", "-warmup", "10000", "-workers", "2",
		"-cache-dir", cacheDir, "-journal-dir", journalDir,
	}

	// --- Life 1: burst of 16, then kill -9 mid-flight. -----------------
	d := startDaemon(t, bin, args)
	const burst = 16
	ids := make([]string, 0, burst)
	for i := 0; i < burst; i++ {
		ids = append(ids, submitRun(t, d.base,
			fmt.Sprintf(`{"workloads":["mcf-994"],"l1d":"ipcp","seed":%d}`, i+1)))
	}
	// Mixed states at the moment of death: wait for the first job to
	// finish (so some are done, some running, the rest queued), note
	// its result, then pull the plug with no drain and no journal
	// close.
	waitState(t, d.base, ids[0], "done", 120*time.Second)
	preIPC := jobIPC(t, d.base, ids[0])
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(30 * time.Second); err == nil {
		t.Fatal("SIGKILLed daemon reported a clean exit")
	}

	// --- Life 2: replay. -----------------------------------------------
	d2 := startDaemon(t, bin, args)
	for _, id := range ids {
		waitState(t, d2.base, id, "done", 300*time.Second)
	}
	if got := jobIPC(t, d2.base, ids[0]); got != preIPC {
		t.Fatalf("replayed result drifted: IPC %v != pre-crash %v", got, preIPC)
	}
	var m struct {
		Session struct {
			Executed int `json:"executed"`
		} `json:"session"`
		Journal struct {
			Enabled      bool   `json:"enabled"`
			ReplayedJobs uint64 `json:"replayed_jobs"`
		} `json:"journal"`
	}
	getJSON(t, d2.base+"/metrics", &m)
	if !m.Journal.Enabled || m.Journal.ReplayedJobs != burst {
		t.Fatalf("journal metrics = %+v, want %d replayed jobs", m.Journal, burst)
	}
	// Work finished before the crash is served from the journal, not
	// re-executed: only the unfinished tail runs again.
	if m.Session.Executed >= burst {
		t.Fatalf("executed %d of %d jobs after replay: finished work was re-run", m.Session.Executed, burst)
	}
	// New admissions continue the ID sequence past the replayed jobs.
	next := submitRun(t, d2.base, `{"workloads":["mcf-994"],"l1d":"ipcp","seed":1000}`)
	if want := fmt.Sprintf("j%06d", burst+1); next != want {
		t.Fatalf("post-replay id = %s, want %s", next, want)
	}
	waitState(t, d2.base, next, "done", 120*time.Second)
	sigtermAndWait(t, d2)

	// --- Life 3: corrupt checkpoints are quarantined, never served. ----
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoints to vandalize (err=%v)", err)
	}
	for _, p := range entries {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20 // one flipped bit, anywhere in the frame
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh journal: the job must come back through the checkpoint
	// store, not the WAL replay.
	args3 := append(append([]string{}, args...)[:len(args)-2], "-journal-dir", t.TempDir())
	d3 := startDaemon(t, bin, args3)
	id3 := submitRun(t, d3.base, `{"workloads":["mcf-994"],"l1d":"ipcp","seed":1}`)
	waitState(t, d3.base, id3, "done", 120*time.Second)
	if got := jobIPC(t, d3.base, id3); got != preIPC {
		t.Fatalf("recomputed result drifted: IPC %v != %v", got, preIPC)
	}
	var m3 struct {
		Session struct {
			Executed    int `json:"executed"`
			DiskHits    int `json:"disk_hits"`
			Quarantined int `json:"quarantined"`
		} `json:"session"`
	}
	getJSON(t, d3.base+"/metrics", &m3)
	if m3.Session.Quarantined != 1 || m3.Session.DiskHits != 0 || m3.Session.Executed != 1 {
		t.Fatalf("corrupt checkpoint handling = %+v, want quarantine + recompute, no disk hit", m3.Session)
	}
	if q, _ := filepath.Glob(filepath.Join(cacheDir, "corrupt", "*")); len(q) == 0 {
		t.Fatal("quarantine directory is empty after a corrupt load")
	}
	promBody := getBody(t, d3.base+"/metrics", map[string]string{"Accept": "text/plain"})
	if !strings.Contains(promBody, "ipcpd_checkpoints_quarantined 1") {
		t.Error("prometheus exposition lacks the quarantine counter")
	}
	sigtermAndWait(t, d3)

	// --- Life 4: injected crash at the queue handoff. ------------------
	// crash:1:8 fires on the 9th handoff: eight submissions are
	// acknowledged (and journaled), the ninth dies between the queue
	// send and the WAL append — the one window where work is lost, and
	// the client was never told otherwise.
	journal4 := t.TempDir()
	args4 := append(append([]string{}, args...)[:len(args)-2], "-journal-dir", journal4)
	d4 := startDaemonCapture(t, bin, args4, false, "IPCPD_CHAOS=queue.handoff=crash:1:8")
	acked := make([]string, 0, 8)
	for i := 0; i < 12; i++ {
		resp, err := http.Post(d4.base+"/v1/runs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"workloads":["mcf-994"],"l1d":"ipcp","seed":%d}`, 2000+i)))
		if err != nil {
			break // the injected crash took the daemon mid-request
		}
		if resp.StatusCode == http.StatusAccepted {
			var v struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				resp.Body.Close()
				t.Fatal(err)
			}
			acked = append(acked, v.ID)
		}
		resp.Body.Close()
	}
	if err := d4.wait(30 * time.Second); err == nil {
		t.Fatal("chaos crash never fired: daemon exited cleanly")
	}
	if len(acked) != 8 {
		t.Fatalf("acknowledged %d submissions before the injected crash, want 8", len(acked))
	}

	d5 := startDaemon(t, bin, args4)
	for _, id := range acked {
		waitState(t, d5.base, id, "done", 300*time.Second)
	}
	sigtermAndWait(t, d5)
}

func sigtermAndWait(t *testing.T, d *daemon) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(120 * time.Second); err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}
}

// jobIPC fetches a done job's single-core IPC.
func jobIPC(t *testing.T, base, id string) float64 {
	t.Helper()
	var v struct {
		Result struct {
			IPC []float64 `json:"IPC"`
		} `json:"result"`
	}
	getJSON(t, base+"/v1/runs/"+id, &v)
	if len(v.Result.IPC) == 0 {
		t.Fatalf("job %s carries no result", id)
	}
	return v.Result.IPC[0]
}
