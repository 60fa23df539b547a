package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp/internal/experiments"
)

// syncBuffer lets the slog handler and the test read/write log output
// from different goroutines without a race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newObsServer is newTestServer with a captured JSON debug-level log.
func newObsServer(t *testing.T, opts Options) (*testServer, *syncBuffer) {
	t.Helper()
	logBuf := &syncBuffer{}
	opts.Log = slog.New(slog.NewJSONHandler(logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	return newTestServer(t, opts), logBuf
}

// TestRequestIDCorrelationEndToEnd is the acceptance-criteria walk: one
// POST with X-Request-ID: demo must surface that id on the response
// header, the job record, every related structured log line, and every
// span from the HTTP handler down to the simulator's phase spans.
func TestRequestIDCorrelationEndToEnd(t *testing.T) {
	s, logBuf := newObsServer(t, Options{})

	body, _ := json.Marshal(RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", L2: "ipcp"}})
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "demo")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "demo" {
		t.Errorf("response X-Request-ID = %q, want demo", got)
	}
	var v submitView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}

	job := s.await(t, v.ID, 10*time.Second)
	if job.Status != StateDone {
		t.Fatalf("job = %+v", job)
	}
	if job.RequestID != "demo" {
		t.Errorf("job view request_id = %q, want demo", job.RequestID)
	}
	if job.Revision == "" {
		t.Errorf("job view carries no revision")
	}

	// Spans: the whole hop chain must exist for this job, each hop
	// stamped with the request id.
	want := map[string]bool{
		"queue.wait": false, "job.run": false, "session.run": false,
		"session.admission": false, "sim.warmup": false, "sim.measure": false,
	}
	sawHTTP := false
	for _, sp := range s.Spans().Snapshot() {
		if strings.HasPrefix(sp.Name, "http POST /v1/runs") && sp.RequestID == "demo" {
			sawHTTP = true
		}
		if sp.JobID != v.ID {
			continue
		}
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
			if sp.RequestID != "demo" {
				t.Errorf("span %s request id = %q, want demo", sp.Name, sp.RequestID)
			}
		}
	}
	if !sawHTTP {
		t.Errorf("no http submit span with request id demo")
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %s span for job %s", name, v.ID)
		}
	}

	// The per-job Chrome trace export carries the id too.
	traceResp, traceBody := s.get(t, "/v1/runs/"+v.ID+"/trace")
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d", traceResp.StatusCode)
	}
	var chromeTrace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				RequestID string `json:"request_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBody, &chromeTrace); err != nil {
		t.Fatalf("trace is not chrome trace JSON: %v", err)
	}
	foundPhase := false
	for _, ev := range chromeTrace.TraceEvents {
		if ev.Name == "sim.measure" && ev.Args.RequestID == "demo" {
			foundPhase = true
		}
	}
	if !foundPhase {
		t.Errorf("chrome trace lacks a sim.measure event with request_id demo: %s", traceBody)
	}

	// Logs: every line mentioning this job carries request_id=demo, and
	// the admitted/done lifecycle lines exist.
	sawAdmitted, sawDone := false, false
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		if line["job_id"] != v.ID {
			continue
		}
		if line["request_id"] != "demo" {
			t.Errorf("log line %q lacks request_id=demo", sc.Text())
		}
		switch line["msg"] {
		case "job admitted":
			sawAdmitted = true
		case "job done":
			sawDone = true
		}
	}
	if !sawAdmitted || !sawDone {
		t.Errorf("lifecycle log lines missing: admitted=%v done=%v\n%s", sawAdmitted, sawDone, logBuf.String())
	}
}

// TestRequestIDMinted checks a header-less request still gets a
// correlation id echoed back.
func TestRequestIDMinted(t *testing.T) {
	s := newTestServer(t, Options{})
	resp, _ := s.get(t, "/healthz")
	if rid := resp.Header.Get("X-Request-ID"); len(rid) < 8 {
		t.Errorf("minted request id = %q", rid)
	}
}

// promLine matches one Prometheus text-format sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// validateExposition checks every sample line parses and is preceded by
// HELP/TYPE headers for its family.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suffix)
		}
		if !typed[family] && !typed[name] {
			t.Errorf("sample %q has no TYPE header", line)
		}
	}
}

// TestMetricsPrometheusExposition runs a job, scrapes /metrics with a
// Prometheus-shaped Accept header and checks the exposition parses,
// keeps queue-wait and execution as distinct histograms, and counts the
// completed job.
func TestMetricsPrometheusExposition(t *testing.T) {
	s := newTestServer(t, Options{})
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp"}}, http.StatusAccepted)
	s.await(t, v.ID, 10*time.Second)

	req, _ := http.NewRequest(http.MethodGet, s.ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	validateExposition(t, text)

	for _, needle := range []string{
		"ipcpd_jobs_total{outcome=\"completed\"} 1",
		"ipcpd_job_queue_wait_seconds_count 1",
		"ipcpd_job_execution_seconds_count 1",
		"ipcpd_job_duration_seconds_count 1",
		"ipcpd_job_queue_wait_seconds_bucket{le=\"+Inf\"} 1",
		"ipcpd_job_execution_seconds_bucket{le=\"+Inf\"} 1",
		"ipcpd_build_info{",
		"ipcpd_session_runs_total{disposition=\"executed\"} 1",
		"ipcpd_sim_cycles_total{mode=\"stepped\"} ",
		"ipcpd_sim_cycles_total{mode=\"jumped\"} ",
		"ipcpd_sim_builds_recycled_total 1",
		"ipcpd_checkpoint_saves_pending 0",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("exposition lacks %q:\n%s", needle, text)
		}
	}

	// The default representation stays JSON and now splits the latency.
	_, jsonBody := s.get(t, "/metrics")
	var m MetricsSnapshot
	if err := json.Unmarshal(jsonBody, &m); err != nil {
		t.Fatalf("JSON /metrics broke: %v", err)
	}
	if m.QueueWait.Count != 1 || m.Execution.Count != 1 || m.JobLatency.Count != 1 {
		t.Errorf("histogram counts = %d/%d/%d, want 1/1/1",
			m.QueueWait.Count, m.Execution.Count, m.JobLatency.Count)
	}
	if m.JobLatency.Sum < m.Execution.Sum {
		t.Errorf("end-to-end latency %.6fs < execution %.6fs", m.JobLatency.Sum, m.Execution.Sum)
	}
}

// TestWantsPrometheus pins the content negotiation.
func TestWantsPrometheus(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                          false,
		"application/json":          false,
		"text/plain":                true,
		"text/plain; version=0.0.4": true,
		"application/openmetrics-text; version=1.0.0": true,
		"text/*":                          true,
		"text/html,application/xhtml+xml": false,
	} {
		if got := WantsPrometheus(accept); got != want {
			t.Errorf("WantsPrometheus(%q) = %v, want %v", accept, got, want)
		}
	}
}

// TestConcurrentMetricsScrape hammers /metrics (both representations)
// and /debug/trace while jobs run — the -race guard for the scrape
// paths reading live counters, histograms and the span ring.
func TestConcurrentMetricsScrape(t *testing.T) {
	s := newTestServer(t, Options{QueueSize: 16, Workers: 2})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodGet, s.ts.URL+"/metrics", nil)
				if i%2 == 0 {
					req.Header.Set("Accept", "text/plain")
				}
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
				if resp, err := http.Get(s.ts.URL + "/debug/trace"); err == nil {
					resp.Body.Close()
				}
			}
		}(i)
	}
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}, Seed: int64(i + 1)}}, http.StatusAccepted)
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		s.await(t, id, 20*time.Second)
	}
	close(done)
	wg.Wait()
}

// TestProgressEndpoint checks the live-progress surface: after a run
// completes, its last report shows a finished measure phase, and the
// events stream replayed a progress line shape when any were sampled.
func TestProgressEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"gcc-56"}, L1D: "ipcp", L2: "ipcp"}}, http.StatusAccepted)
	s.await(t, v.ID, 10*time.Second)

	resp, body := s.get(t, "/v1/runs/"+v.ID+"/progress")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress = %d (%s)", resp.StatusCode, body)
	}
	var p struct {
		ID      string   `json:"id"`
		Status  JobState `json:"status"`
		Phase   string   `json:"phase"`
		Retired uint64   `json:"retired"`
		Target  uint64   `json:"target"`
		Percent float64  `json:"percent"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.ID != v.ID || p.Status != StateDone {
		t.Fatalf("progress view = %+v", p)
	}
	if p.Phase != "measure" || p.Target != tiny.Measure || p.Retired < p.Target {
		t.Errorf("final progress = %+v, want completed measure phase (target %d)", p, tiny.Measure)
	}
	if p.Percent != 100 {
		t.Errorf("percent = %v, want 100", p.Percent)
	}

	_, notFound := s.get(t, "/v1/runs/nope/progress")
	if !bytes.Contains(notFound, []byte("unknown job")) {
		t.Errorf("missing-job progress body = %s", notFound)
	}
}

// TestBuildinfoEndpoint checks /v1/buildinfo always answers with a
// toolchain version, even in test binaries without VCS stamps.
func TestBuildinfoEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	resp, body := s.get(t, "/v1/buildinfo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buildinfo = %d", resp.StatusCode)
	}
	var bi BuildInfo
	if err := json.Unmarshal(body, &bi); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Errorf("go version = %q", bi.GoVersion)
	}
	if bi.Revision == "" || bi.Version == "" {
		t.Errorf("build info = %+v, want non-empty fallbacks", bi)
	}
}

// TestDebugTraceDaemonWide checks /debug/trace includes spans from
// multiple jobs plus daemon-lane metadata.
func TestDebugTraceDaemonWide(t *testing.T) {
	s := newTestServer(t, Options{})
	a := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}, Seed: 101}}, http.StatusAccepted)
	b := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}, Seed: 102}}, http.StatusAccepted)
	s.await(t, a.ID, 10*time.Second)
	s.await(t, b.ID, 10*time.Second)

	resp, body := s.get(t, "/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug trace = %d", resp.StatusCode)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				JobID string `json:"job_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("debug trace is not chrome trace JSON: %v", err)
	}
	jobs := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Args.JobID != "" {
			jobs[ev.Args.JobID] = true
		}
	}
	if !jobs[a.ID] || !jobs[b.ID] {
		t.Errorf("daemon-wide trace covers jobs %v, want both %s and %s", jobs, a.ID, b.ID)
	}
}

// TestSessionWarningsUseServerLogger pins Options.Log to the session
// and its checkpoint store: a damaged checkpoint found on resubmission
// must be reported on the server's logger (so `ipcpd -log-format json`
// covers it), not on slog.Default().
func TestSessionWarningsUseServerLogger(t *testing.T) {
	cacheDir := t.TempDir()
	req := RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp"}}

	first := newTestServer(t, Options{CacheDir: cacheDir})
	first.await(t, first.submitRun(t, req, http.StatusAccepted).ID, 30*time.Second)
	first.Session().Flush()
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*", "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("checkpoints on disk = %v (err %v), want exactly one", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	second, logBuf := newObsServer(t, Options{CacheDir: cacheDir})
	second.await(t, second.submitRun(t, req, http.StatusAccepted).ID, 30*time.Second)
	for _, line := range strings.Split(logBuf.String(), "\n") {
		var rec struct {
			Level, Msg, Path string
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Level == "WARN" &&
			rec.Msg == "damaged entry quarantined" && rec.Path == entries[0] {
			return
		}
	}
	t.Fatalf("no JSON quarantine warning for %s on the server's logger:\n%s", entries[0], logBuf.String())
}
