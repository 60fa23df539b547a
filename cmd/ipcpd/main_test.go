package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ipcp/internal/sim"
)

// TestServeSmoke is the end-to-end daemon exercise behind `make
// serve-smoke`: build the real binary, boot it on an ephemeral port,
// drive the API, SIGTERM it mid-job and demand a clean (exit 0) drain,
// then reboot over the same cache directory and prove the checkpointed
// result is served without resimulating.
//
// The binary is built without -race regardless of how this test binary
// runs, so simulation speed — and therefore the drain-window timing —
// is stable under `go test -race ./...`.
func TestServeSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ipcpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ipcpd: %v\n%s", err, out)
	}
	cacheDir := t.TempDir()
	// A job big enough (~12M instructions of mcf-994, ~5 s at the
	// event-driven scheduler's ~2M instr/s on this workload) to still be
	// in flight when the SIGTERM lands, small enough to drain in a few
	// seconds.
	args := []string{
		"-addr", "127.0.0.1:0", "-scale", "quick",
		"-measure", "12000000", "-warmup", "10000",
		"-cache-dir", cacheDir, "-drain-timeout", "120s",
	}

	// --- First life: busy drain. ---------------------------------------
	d := startDaemon(t, bin, args)
	mustGet(t, d.base+"/healthz", http.StatusOK)
	mustGet(t, d.base+"/metrics", http.StatusOK)

	id := submitRun(t, d.base, `{"workloads":["mcf-994"],"l1d":"ipcp","l2":"ipcp"}`)
	waitState(t, d.base, id, "running", 30*time.Second)

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// While draining, new admissions bounce with 429 (or, if the drain
	// already finished, the listener is gone — both are "not admitted").
	deadline := time.Now().Add(10 * time.Second)
	admissionClosed := false
	for time.Now().Before(deadline) && !admissionClosed {
		resp, err := http.Post(d.base+"/v1/runs", "application/json",
			strings.NewReader(`{"workloads":["bwaves-98"]}`))
		switch {
		case err != nil:
			admissionClosed = true // listener closed: drain completed
		case resp.StatusCode == http.StatusTooManyRequests:
			resp.Body.Close()
			admissionClosed = true
		case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
			// Signal not yet processed; retry.
			resp.Body.Close()
			time.Sleep(20 * time.Millisecond)
		default:
			resp.Body.Close()
			t.Fatalf("probe during drain: unexpected status %d", resp.StatusCode)
		}
	}
	if !admissionClosed {
		t.Fatal("admission never closed after SIGTERM")
	}
	if err := d.wait(120 * time.Second); err != nil {
		t.Fatalf("busy drain was not clean: %v", err)
	}

	// The in-flight job completed and was checkpointed.
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpointed results in %s after drain (err=%v)", cacheDir, err)
	}

	// --- Second life: resume from the checkpoint. ----------------------
	d2 := startDaemon(t, bin, args)
	id2 := submitRun(t, d2.base, `{"workloads":["mcf-994"],"l1d":"ipcp","l2":"ipcp"}`)
	waitState(t, d2.base, id2, "done", 30*time.Second)

	var m struct {
		Session struct {
			Executed int `json:"executed"`
			DiskHits int `json:"disk_hits"`
		} `json:"session"`
	}
	getJSON(t, d2.base+"/metrics", &m)
	if m.Session.Executed != 0 || m.Session.DiskHits != 1 {
		t.Fatalf("restarted daemon: executed=%d disk_hits=%d, want 0/1 (checkpoint reuse)",
			m.Session.Executed, m.Session.DiskHits)
	}
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.wait(60 * time.Second); err != nil {
		t.Fatalf("idle drain was not clean: %v", err)
	}
}

// TestObsSmoke is the end-to-end observability exercise behind `make
// obs-smoke`: boot the real binary with JSON debug logs and a pprof
// listener, submit a run tagged X-Request-ID: demo, watch its live
// progress, then demand the id back on the response header, the
// structured logs, and the Chrome trace; scrape Prometheus metrics with
// the split latency histograms; hit buildinfo and pprof.
func TestObsSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ipcpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ipcpd: %v\n%s", err, out)
	}
	d := startDaemonCapture(t, bin, []string{
		"-addr", "127.0.0.1:0", "-scale", "quick",
		"-measure", "3000000", "-warmup", "10000",
		"-log-format", "json", "-log-level", "debug",
		"-debug-addr", "127.0.0.1:0",
	}, true)

	// Submit with a caller-chosen correlation id.
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/runs",
		strings.NewReader(`{"workloads":["mcf-994"],"l1d":"ipcp","l2":"ipcp"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "demo")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "demo" {
		t.Errorf("response X-Request-ID = %q, want demo", got)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Live progress: some report with retired instructions must surface
	// before (or at) completion.
	deadline := time.Now().Add(60 * time.Second)
	sawProgress := false
	for time.Now().Before(deadline) {
		var p struct {
			Status  string `json:"status"`
			Phase   string `json:"phase"`
			Retired uint64 `json:"retired"`
		}
		getJSON(t, d.base+"/v1/runs/"+sub.ID+"/progress", &p)
		if p.Retired > 0 && (p.Phase == "warmup" || p.Phase == "measure") {
			sawProgress = true
		}
		if p.Status == "done" || p.Status == "failed" {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !sawProgress {
		t.Error("no live progress report ever surfaced")
	}
	waitState(t, d.base, sub.ID, "done", 60*time.Second)

	// The per-job Chrome trace carries the request id through every hop.
	traceBody := getBody(t, d.base+"/v1/runs/"+sub.ID+"/trace", nil)
	for _, needle := range []string{"queue.wait", "session.run", "sim.warmup", "sim.measure", `"request_id": "demo"`} {
		if !strings.Contains(traceBody, needle) {
			t.Errorf("job trace lacks %q", needle)
		}
	}
	if body := getBody(t, d.base+"/debug/trace", nil); !strings.Contains(body, "traceEvents") {
		t.Errorf("daemon-wide trace looks wrong: %.120s", body)
	}

	// Prometheus exposition with the split histograms.
	promBody := getBody(t, d.base+"/metrics", map[string]string{"Accept": "text/plain"})
	for _, needle := range []string{
		"# TYPE ipcpd_job_queue_wait_seconds histogram",
		"# TYPE ipcpd_job_execution_seconds histogram",
		`ipcpd_jobs_total{outcome="completed"} 1`,
		"ipcpd_build_info{",
	} {
		if !strings.Contains(promBody, needle) {
			t.Errorf("prometheus exposition lacks %q", needle)
		}
	}

	var bi struct {
		GoVersion string `json:"go_version"`
		Revision  string `json:"vcs_revision"`
	}
	getJSON(t, d.base+"/v1/buildinfo", &bi)
	if !strings.HasPrefix(bi.GoVersion, "go") || bi.Revision == "" {
		t.Errorf("buildinfo = %+v", bi)
	}

	// pprof answers on its own listener, announced in the logs.
	logs := d.stderr.String()
	m := regexp.MustCompile(`http://127\.0\.0\.1:\d+/debug/pprof/`).FindString(logs)
	if m == "" {
		t.Fatalf("pprof address never logged:\n%s", logs)
	}
	mustGet(t, m, http.StatusOK)
	mustGet(t, strings.TrimSuffix(m, "/")+"/cmdline", http.StatusOK)

	// Structured logs: JSON lines, and the job lifecycle carries the id.
	sawCorrelated := false
	sc := bufio.NewScanner(strings.NewReader(logs))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("stderr line is not JSON: %q", line)
		}
		if entry["request_id"] == "demo" && entry["job_id"] == sub.ID {
			sawCorrelated = true
		}
	}
	if !sawCorrelated {
		t.Errorf("no log line correlates request demo with job %s:\n%s", sub.ID, logs)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(60 * time.Second); err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}
}

// TestCoordinatorServesPprof: -debug-addr is honoured in every mode,
// the coordinator's included — its listener is up by the time the
// coordinator announces its own address.
func TestCoordinatorServesPprof(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ipcpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ipcpd: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := ln.Addr().String()
	ln.Close()
	cd := startCoordinator(t, bin, []string{
		"-coordinator", "-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-debug-addr", debugAddr,
	})
	mustGet(t, "http://"+debugAddr+"/debug/pprof/", http.StatusOK)
	mustGet(t, "http://"+debugAddr+"/debug/pprof/cmdline", http.StatusOK)
	sigtermAndWait(t, cd)
}

// getBody fetches a URL (with optional headers) and returns the body.
func getBody(t *testing.T, url string, headers map[string]string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, resp.StatusCode, buf.Bytes())
	}
	return buf.String()
}

type daemon struct {
	cmd    *exec.Cmd
	base   string
	done   chan error
	stderr *lockedBuffer // non-nil when the caller captures logs
}

// lockedBuffer is a concurrency-safe sink for the child's stderr: the
// pipe goroutine writes while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon launches the binary and parses the ephemeral address off
// stdout. The process is killed at test cleanup if still alive.
func startDaemon(t *testing.T, bin string, args []string) *daemon {
	return startDaemonCapture(t, bin, args, false)
}

// startDaemonCapture optionally tees the daemon's stderr into a buffer
// the test can inspect (structured-log assertions). Extra env entries
// (KEY=VALUE) are appended to the inherited environment.
func startDaemonCapture(t *testing.T, bin string, args []string, capture bool, env ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	var logBuf *lockedBuffer
	if capture {
		logBuf = &lockedBuffer{}
		cmd.Stderr = io.MultiWriter(os.Stderr, logBuf)
	} else {
		cmd.Stderr = os.Stderr
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "ipcpd listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address: %v", sc.Err())
	}
	d := &daemon{cmd: cmd, base: addr, done: make(chan error, 1), stderr: logBuf}
	go func() {
		// Drain the rest of stdout so the child never blocks on a full
		// pipe, then reap it.
		for sc.Scan() {
		}
		d.done <- cmd.Wait()
	}()
	return d
}

// wait blocks for process exit and fails on a non-zero status.
func (d *daemon) wait(timeout time.Duration) error {
	select {
	case err := <-d.done:
		return err
	case <-time.After(timeout):
		return errors.New("daemon did not exit in time")
	}
}

func mustGet(t *testing.T, url string, want int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, want)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

func submitRun(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", resp.StatusCode)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// waitState polls the job until it reaches state (or a terminal state
// past it).
func waitState(t *testing.T, base, id, state string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		getJSON(t, base+"/v1/runs/"+id, &v)
		switch {
		case v.Status == state:
			return
		case v.Status == "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		case v.Status == "done" && state == "running":
			t.Fatalf("job %s finished before the drain window (machine too fast for the smoke sizing?)", id)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, v.Status, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorRefusesSimulationFlags: a coordinator simulates
// nothing, so each flag that only configures a simulation is refused
// when set explicitly (exit 1, naming it) instead of silently ignored.
func TestCoordinatorRefusesSimulationFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ipcpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ipcpd: %v\n%s", err, out)
	}
	for _, arg := range []string{"-cache-dir=x", "-scale=quick", "-warmup=1000", "-measure=1000"} {
		cmd := exec.Command(bin, "-coordinator", "-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), arg)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("ipcpd -coordinator %s: %v, want exit status 1\n%s", arg, err, out)
			continue
		}
		if name, _, _ := strings.Cut(arg, "="); !strings.Contains(string(out), name+" does not apply") {
			t.Errorf("ipcpd -coordinator %s refused without naming %s:\n%s", arg, name, out)
		}
	}
}

// TestIpcpsimAgreesWithDaemon: the serving stack must not change what
// the simulator computes. ipcpsim -json and ipcpd's GET /v1/runs/{id}
// result for the same run (lbm-94, IPCP at L1-D and L2, same sizes and
// seed) decode to deeply equal sim.Results.
func TestIpcpsimAgreesWithDaemon(t *testing.T) {
	dir := t.TempDir()
	daemonBin, simBin := filepath.Join(dir, "ipcpd"), filepath.Join(dir, "ipcpsim")
	for _, b := range [][2]string{{daemonBin, "."}, {simBin, "../ipcpsim"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b[1], err, out)
		}
	}
	const warmup, measure, seed = "2000", "8000", "7"
	out, err := exec.Command(simBin, "-workload", "lbm-94", "-l1", "ipcp", "-l2", "ipcp",
		"-warmup", warmup, "-measure", measure, "-seed", seed, "-json").Output()
	if err != nil {
		t.Fatalf("ipcpsim: %v", err)
	}
	var cli sim.Result
	if err := json.Unmarshal(out, &cli); err != nil || cli.Instructions != 8000 || len(cli.IPC) != 1 {
		t.Fatalf("ipcpsim -json: %v (%d instructions, %d IPCs)", err, cli.Instructions, len(cli.IPC))
	}

	d := startDaemon(t, daemonBin, []string{"-addr", "127.0.0.1:0", "-warmup", warmup, "-measure", measure})
	id := submitRun(t, d.base, `{"workloads":["lbm-94"],"l1d":"ipcp","l2":"ipcp","seed":`+seed+`}`)
	waitState(t, d.base, id, "done", 60*time.Second)
	var job struct {
		Result *sim.Result `json:"result"`
	}
	getJSON(t, d.base+"/v1/runs/"+id, &job)
	if job.Result == nil || !reflect.DeepEqual(*job.Result, cli) {
		t.Errorf("ipcpd and ipcpsim disagree on lbm-94 seed %s:\n ipcpd   %+v\n ipcpsim %+v", seed, job.Result, cli)
	}
	sigtermAndWait(t, d)
}
