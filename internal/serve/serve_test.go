package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/telemetry"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// tiny keeps every simulation in the low milliseconds.
var tiny = experiments.Scale{Warmup: 8_000, Measure: 20_000, MaxTraces: 2, Mixes: 1, Seed: 1}

// serveGate blocks workload-stream construction (inside the session's
// execute path) until released, so tests can hold jobs in the running
// state deterministically.
var (
	serveGateMu      sync.Mutex
	serveGateBlocked chan struct{} // non-nil: streams block on it
)

func gateJobs(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	serveGateMu.Lock()
	serveGateBlocked = ch
	serveGateMu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() { close(ch) })
	}
	t.Cleanup(func() {
		release()
		serveGateMu.Lock()
		serveGateBlocked = nil
		serveGateMu.Unlock()
	})
	return release
}

func init() {
	workload.Register(workload.Spec{
		Name: "serve-gate", Suite: "test",
		NewStream: func(seed int64) trace.Stream {
			serveGateMu.Lock()
			ch := serveGateBlocked
			serveGateMu.Unlock()
			if ch != nil {
				<-ch
			}
			return &trace.SliceStream{
				Instrs: []trace.Instr{{IP: 0x400000, Loads: [trace.MaxLoads]uint64{0x10000}}},
				Loop:   true,
			}
		},
	})
}

// testServer is a Server plus its httptest front end.
type testServer struct {
	*Server
	ts *httptest.Server
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	if opts.Scale == (experiments.Scale{}) {
		opts.Scale = tiny
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testServer{Server: s, ts: ts}
}

func (s *testServer) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return s.postRaw(t, path, string(b))
}

// postRaw posts the body exactly as written.
func (s *testServer) postRaw(t *testing.T, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func (s *testServer) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// submitRun posts a run and decodes the submission view.
func (s *testServer) submitRun(t *testing.T, req RunRequest, wantCode int) submitView {
	t.Helper()
	resp, body := s.post(t, "/v1/runs", req)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/runs = %d, want %d (body %s)", resp.StatusCode, wantCode, body)
	}
	var v submitView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return v
}

// await polls a job until terminal.
func (s *testServer) await(t *testing.T, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, body := s.get(t, "/v1/runs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s = %d (%s)", id, resp.StatusCode, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == StateDone || v.Status == StateFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitPollComplete(t *testing.T) {
	s := newTestServer(t, Options{})
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp", L2: "ipcp"}}, http.StatusAccepted)
	if v.ID == "" || v.Coalesced {
		t.Fatalf("submission view = %+v", v)
	}
	job := s.await(t, v.ID, 10*time.Second)
	if job.Status != StateDone || job.Error != "" {
		t.Fatalf("job = %+v", job)
	}
	if job.Result == nil || len(job.Result.IPC) != 1 || job.Result.IPC[0] <= 0 {
		t.Fatalf("result = %+v", job.Result)
	}
	if job.Spec == nil || job.Spec.L1D != "ipcp" {
		t.Errorf("spec echo = %+v", job.Spec)
	}

	// The events stream replays the full lifecycle and terminates.
	resp, body := s.get(t, "/v1/runs/"+v.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	var kinds []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var e JobEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if e.Kind == "progress" {
			continue
		}
		kinds = append(kinds, e.Kind)
	}
	if want := []string{"queued", "started", "done"}; fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
}

// TestStampedeCoalesces is the acceptance-criteria stampede: M
// concurrent identical submissions cost exactly one simulation and
// every client gets the same successful result.
func TestStampedeCoalesces(t *testing.T) {
	s := newTestServer(t, Options{QueueSize: 64, Workers: 4})
	const m = 16
	req := RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", L2: "ipcp"}}

	var wg sync.WaitGroup
	ids := make([]string, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(req)
			resp, err := http.Post(s.ts.URL+"/v1/runs", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			var v submitView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var ipc float64
	for i, id := range ids {
		job := s.await(t, id, 10*time.Second)
		if job.Status != StateDone {
			t.Fatalf("client %d: job %s = %+v", i, id, job)
		}
		if i == 0 {
			ipc = job.Result.IPC[0]
		} else if job.Result.IPC[0] != ipc {
			t.Fatalf("client %d saw IPC %v, client 0 saw %v", i, job.Result.IPC[0], ipc)
		}
	}
	if got := s.Session().Executed(); got != 1 {
		t.Fatalf("Executed = %d, want 1: the stampede must share one simulation", got)
	}
	m2 := s.Metrics()
	if m2.Jobs.Admitted+m2.Jobs.Coalesced != m {
		t.Errorf("admitted %d + coalesced %d != %d clients", m2.Jobs.Admitted, m2.Jobs.Coalesced, m)
	}
	if m2.Jobs.Coalesced == 0 {
		t.Error("no HTTP-level coalescing recorded for identical submissions")
	}
}

func TestQueueFullRejects(t *testing.T) {
	release := gateJobs(t)
	s := newTestServer(t, Options{QueueSize: 1, Workers: 1})

	// Job 1 occupies the single worker (blocked on the gate); job 2
	// fills the queue; job 3 must be refused with 429 + Retry-After.
	first := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9011}}, http.StatusAccepted)
	waitFor(t, time.Second, func() bool { return s.Metrics().InFlight == 1 })
	s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9012}}, http.StatusAccepted)

	resp, body := s.post(t, "/v1/runs", RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9013}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submission = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if m := s.Metrics(); m.Jobs.Rejected != 1 || m.QueueDepth != 1 {
		t.Errorf("metrics = %+v", m)
	}

	// Identical resubmission of a queued spec coalesces instead of
	// consuming the full queue's capacity.
	again := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9011}}, http.StatusOK)
	if !again.Coalesced || again.ID != first.ID {
		t.Errorf("resubmission = %+v, want coalesced onto %s", again, first.ID)
	}

	release()
	s.await(t, first.ID, 10*time.Second)
}

func TestDrainStopsAdmissionAndFinishesInFlight(t *testing.T) {
	release := gateJobs(t)
	s := newTestServer(t, Options{QueueSize: 8, Workers: 2})
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9014}}, http.StatusAccepted)
	waitFor(t, time.Second, func() bool { return s.Metrics().InFlight == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	waitFor(t, time.Second, func() bool { return s.Draining() })

	// Admission is closed: new work bounces with 429, healthz flips.
	resp, _ := s.post(t, "/v1/runs", RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission while draining = %d, want 429", resp.StatusCode)
	}
	if resp, _ := s.get(t, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	// The in-flight job still completes, then the drain resolves.
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	job := s.await(t, v.ID, 10*time.Second)
	if job.Status != StateDone {
		t.Fatalf("in-flight job after drain = %+v", job)
	}
}

func TestValidationAndLookupErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name string
		req  RunRequest
	}{
		{"empty workloads", RunRequest{}},
		{"unknown workload", RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"no-such-trace"}}}},
		{"unknown prefetcher", RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "warp-drive"}}},
		{"three cores", RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98", "bwaves-98", "bwaves-98"}}}},
		{"negative timeout", RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}}, TimeoutMS: -1}},
	}
	for _, c := range cases {
		if resp, body := s.post(t, "/v1/runs", c.req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, body)
		}
	}
	if resp, _ := s.get(t, "/v1/runs/j999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
	if resp, _ := s.get(t, "/v1/runs/j999999/events"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events = %d, want 404", resp.StatusCode)
	}
	if resp, body := s.post(t, "/v1/experiments", experimentsRequest{IDs: []string{"fig999"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment = %d (%s), want 400", resp.StatusCode, body)
	}
}

func TestExperimentsListAndJob(t *testing.T) {
	s := newTestServer(t, Options{Scale: experiments.Scale{Warmup: 2_000, Measure: 5_000, MaxTraces: 1, Mixes: 1, Seed: 1}})
	resp, body := s.get(t, "/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var list []experimentView
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no experiments listed")
	}
	id := ""
	for _, e := range list {
		if e.ID == "fig7" {
			id = e.ID
		}
	}
	if id == "" {
		t.Fatalf("fig7 missing from %v", list)
	}

	resp, body = s.post(t, "/v1/experiments", experimentsRequest{IDs: []string{id}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, body)
	}
	var v submitView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	job := s.await(t, v.ID, 60*time.Second)
	if job.Status != StateDone || job.Report == nil {
		t.Fatalf("experiment job = %+v", job)
	}
	if !strings.Contains(job.Report.Markdown, "fig7") {
		t.Errorf("report markdown missing the experiment:\n%s", job.Report.Markdown)
	}
	if job.Result != nil {
		t.Error("experiment job must not carry a run result")
	}
}

func TestMetricsSnapshotShape(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir()})
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: 9015}}, http.StatusAccepted)
	done := s.await(t, v.ID, 10*time.Second)

	resp, body := s.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding metrics %s: %v", body, err)
	}
	if m.Jobs.Admitted != 1 || m.Jobs.Completed != 1 {
		t.Errorf("jobs = %+v", m.Jobs)
	}
	if m.Session.Executed != 1 || m.Session.BuildsRecycled != 1 {
		t.Errorf("session = %+v, want one run executed and its system recycled", m.Session)
	}
	// A gauge that is usually zero still has to be on the wire.
	if !strings.Contains(string(body), `"pending_saves"`) {
		t.Errorf("metrics JSON lacks session.pending_saves:\n%s", body)
	}
	// The scheduler self-profile partitions the measured phase: every
	// cycle of the one executed (single-core) run was stepped or jumped.
	if done.Result == nil {
		t.Fatal("finished job carries no result")
	}
	cycles := uint64(done.Result.CyclesPerCore[0])
	if m.Session.SteppedCycles == 0 || m.Session.SteppedCycles+m.Session.JumpedCycles != cycles {
		t.Errorf("stepped %d + jumped %d cycles, want a non-zero stepped count summing to the run's %d",
			m.Session.SteppedCycles, m.Session.JumpedCycles, cycles)
	}
	if m.JobLatency.Count != 1 || m.JobLatency.Sum <= 0 {
		t.Errorf("latency = %+v", m.JobLatency)
	}
	if m.QueueCapacity != 64 {
		t.Errorf("queue capacity = %d", m.QueueCapacity)
	}
}

// TestSharedWarmupServer drives the -shared-warmup daemon path: two
// runs differing only in prefetcher configuration share one warmup,
// the snapshot-store counters surface in both /metrics encodings, and
// forked jobs carry the warmup_shared span attribute.
func TestSharedWarmupServer(t *testing.T) {
	s := newTestServer(t, Options{SharedWarmup: true})

	a := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp"}}, http.StatusAccepted)
	s.await(t, a.ID, 10*time.Second)
	b := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "spp"}}, http.StatusAccepted)
	s.await(t, b.ID, 10*time.Second)

	resp, body := s.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding metrics %s: %v", body, err)
	}
	if m.Session.SnapshotMisses != 1 {
		t.Errorf("snapshot misses = %d, want 1 (one warmup for both jobs)", m.Session.SnapshotMisses)
	}
	if m.Session.ForkedRuns != 2 {
		t.Errorf("forked runs = %d, want 2", m.Session.ForkedRuns)
	}
	if m.Session.SnapshotMemHits != 1 {
		t.Errorf("snapshot mem hits = %d, want 1 (second job forks the resident snapshot)", m.Session.SnapshotMemHits)
	}

	// The same counters must reach Prometheus scrapers.
	req, _ := http.NewRequest(http.MethodGet, s.ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(promResp.Body)
	promResp.Body.Close()
	for _, want := range []string{
		`ipcpd_snapshot_store_total{disposition="miss"} 1`,
		`ipcpd_snapshot_store_total{disposition="mem_hit"} 1`,
		"ipcpd_forked_runs_total 2",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition lacks %q", want)
		}
	}

	// The forked job's session.run reads restore | measure: a sim.restore
	// child that ends before its sim.measure sibling starts.
	var run, restore, measure *telemetry.Span
	for _, sp := range s.Spans().Snapshot() {
		if sp.JobID != b.ID {
			continue
		}
		switch sp := sp; sp.Name {
		case "session.run":
			run = &sp
		case "sim.restore":
			restore = &sp
		case "sim.measure":
			measure = &sp
		}
	}
	if run == nil || restore == nil || measure == nil {
		t.Fatalf("forked job %s lacks a session.run, sim.restore or sim.measure span", b.ID)
	}
	if restore.Parent != run.ID || measure.Parent != run.ID || measure.Start.Before(restore.Start.Add(restore.Dur)) {
		t.Errorf("sim.restore (parent %d, %v+%v) and sim.measure (parent %d, start %v) are not consecutive children of session.run %d",
			restore.Parent, restore.Start, restore.Dur, measure.Parent, measure.Start, run.ID)
	}

	// Both jobs' spans are tagged as shared-warmup runs.
	for _, id := range []string{a.ID, b.ID} {
		resp, traceBody := s.get(t, "/v1/runs/"+id+"/trace")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace for %s = %d", id, resp.StatusCode)
		}
		if !bytes.Contains(traceBody, []byte("warmup_shared")) {
			t.Errorf("job %s trace lacks the warmup_shared attribute", id)
		}
	}
}

// TestEventsFollowLiveJob streams events while the job is still
// running: the started event must arrive before release, the terminal
// event after.
func TestEventsFollowLiveJob(t *testing.T) {
	release := gateJobs(t)
	s := newTestServer(t, Options{})
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9016}}, http.StatusAccepted)
	waitFor(t, time.Second, func() bool { return s.Metrics().InFlight == 1 })

	resp, err := http.Get(s.ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// read returns the next lifecycle event, skipping any live
	// "progress" lines the stream folds in while the job runs.
	read := func() JobEvent {
		t.Helper()
		for sc.Scan() {
			var e JobEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if e.Kind == "progress" {
				continue
			}
			return e
		}
		t.Fatalf("event stream ended early: %v", sc.Err())
		return JobEvent{}
	}
	if e := read(); e.Kind != "queued" {
		t.Fatalf("first event = %+v", e)
	}
	if e := read(); e.Kind != "started" {
		t.Fatalf("second event = %+v", e)
	}
	release()
	if e := read(); e.Kind != "done" {
		t.Fatalf("terminal event = %+v", e)
	}
	if sc.Scan() {
		t.Fatalf("stream continued past the terminal event: %q", sc.Text())
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
