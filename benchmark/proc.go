package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload needs to reach the system under test: the
// built binaries, a scratch directory that is removed on exit, one HTTP
// client, the span recorder, and the set of child processes still alive.
type env struct {
	root    string // repository root (holds cmd/ and internal/)
	binDir  string // built binaries; survives across runs so the build cache stays warm
	workDir string // per-invocation scratch, removed on exit
	artDir  string // traced-pass artifacts (span file, profiles, /metrics bodies)
	nproc   int
	smoke   bool // every instruction and request count divided by 20
	hc      *http.Client
	tr      *tracer // nil on the untraced pass

	mu   sync.Mutex
	live map[*exec.Cmd]struct{}
}

// scaled divides an instruction or request count by 20 in smoke mode.
func (e *env) scaled(n uint64) uint64 {
	if e.smoke {
		if n /= 20; n < 1 {
			n = 1
		}
	}
	return n
}

func (e *env) track(cmd *exec.Cmd) {
	e.mu.Lock()
	e.live[cmd] = struct{}{}
	e.mu.Unlock()
}

func (e *env) untrack(cmd *exec.Cmd) {
	e.mu.Lock()
	delete(e.live, cmd)
	e.mu.Unlock()
}

// killAll is the last line of defence: whatever path the harness exits
// by, no child outlives it.
func (e *env) killAll() {
	e.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(e.live))
	for c := range e.live {
		cmds = append(cmds, c)
	}
	e.mu.Unlock()
	for _, c := range cmds {
		if c.Process != nil {
			c.Process.Kill()
		}
	}
	// Each command's owner (runProc, or the daemon's wait goroutine)
	// reaps it; wait here until they have.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		e.mu.Lock()
		n := len(e.live)
		e.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tempDir makes a fresh directory under the scratch root.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.workDir, prefix+"-")
}

// build compiles the named cmd/ binaries of the repository into binDir.
// With a warm build cache this is the cost a user pays before every run.
func (e *env) build(ctx context.Context, parent *span, cmds ...string) error {
	sp := parent.child("setup.build")
	defer sp.end()
	args := []string{"build", "-o", e.binDir + string(filepath.Separator)}
	for _, c := range cmds {
		args = append(args, "./cmd/"+c)
	}
	return e.goTool(ctx, e.root, args...)
}

// buildLayers compiles the layer-driver binary (benchmark/layers).
func (e *env) buildLayers(ctx context.Context, parent *span) error {
	sp := parent.child("setup.build")
	defer sp.end()
	return e.goTool(ctx, filepath.Join(e.root, "benchmark"),
		"build", "-o", filepath.Join(e.binDir, "layers"), "./layers")
}

func (e *env) goTool(ctx context.Context, dir string, args ...string) error {
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	cmd.WaitDelay = 2 * time.Second
	e.track(cmd)
	out, err := cmd.CombinedOutput()
	e.untrack(cmd)
	if err != nil {
		return fmt.Errorf("go %s (in %s): %w\n%s", strings.Join(args, " "), dir, err, out)
	}
	return nil
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// procResult is one finished child process.
type procResult struct {
	Stdout, Stderr []byte
	Wall           float64 // seconds, process start to exit
	CPU            float64 // user+sys seconds of the child
	RSSMB          float64 // peak resident set
	Err            error
}

// runProc runs one binary to completion, from process start to the last
// byte of its output.
func (e *env) runProc(ctx context.Context, parent *span, name string, args ...string) procResult {
	sp := parent.child("proc." + name)
	defer sp.end()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, e.bin(name), args...)
	cmd.Dir = e.workDir
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 2 * time.Second
	e.track(cmd)
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	e.untrack(cmd)
	r := procResult{Stdout: stdout.Bytes(), Stderr: stderr.Bytes(), Wall: wall, Err: err}
	if ps := cmd.ProcessState; ps != nil {
		r.CPU = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		r.Err = fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, lastLine(stderr.Bytes()))
	}
	return r
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// daemon is one running ipcpd (simulation daemon, worker or
// coordinator), booted on an ephemeral port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	bootS  float64
	exited chan struct{}
}

// startDaemon boots ipcpd with -addr 127.0.0.1:0, reads the resolved
// address from its "listening on" line and waits for /healthz.
func (e *env) startDaemon(ctx context.Context, parent *span, label string, args ...string) (*daemon, error) {
	sp := parent.child("setup.boot." + label)
	defer sp.end()
	logDir, err := e.tempDir("log-" + label)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin("ipcpd"), append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, args...)...)
	cmd.Dir = e.workDir
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ipcpd (%s): %w", label, err)
	}
	e.track(cmd)
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// The daemon prints exactly one stdout line, but keep draining
		// so a chattier future version cannot block on a full pipe.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
		cmd.Wait()
		logf.Close()
		e.untrack(cmd)
		close(d.exited)
	}()

	select {
	case d.base = <-addr:
	case <-d.exited:
		tail, _ := os.ReadFile(logf.Name())
		return nil, fmt.Errorf("ipcpd (%s) exited during boot: %s", label, lastLine(tail))
	case <-time.After(15 * time.Second):
		d.stop()
		return nil, fmt.Errorf("ipcpd (%s) printed no listening line within 15s", label)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		code, _, _, err := e.call(ctx, nil, http.MethodGet, d.base+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("ipcpd (%s) exited before /healthz answered", label)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.bootS = time.Since(start).Seconds()
	return d, nil
}

// stop asks the daemon to drain (SIGTERM), waits for it, and kills it
// if it has not gone within three seconds. Safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuSeconds is the daemon's user+sys CPU so far, from /proc; the
// kernel counts in USER_HZ ticks, 100 per second on Linux.
func (d *daemon) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB is the daemon's high-water resident set, from /proc.
func (d *daemon) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// call makes one HTTP request and reads the whole response. The
// returned duration runs from the first byte sent to the last byte
// received.
func (e *env) call(ctx context.Context, parent *span, method, url string, body []byte) (int, []byte, time.Duration, error) {
	sp := parent.child("http." + method)
	defer sp.end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}
