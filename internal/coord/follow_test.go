package coord

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
)

// These tests hold the coordinator's side of the submit → follow →
// fetch conversation against a scripted worker: what it sends, in which
// order, over how many connections, and what it concludes from each way
// a job's event stream can end.

// fakeJob is one job a fakeWorker admitted; guarded by its worker's mu.
type fakeJob struct {
	id          string
	status      string // what GET /v1/runs/{id} answers
	err         string // ... and, when set, as the job's error
	follows     int    // GET …/events received
	gets        int    // GET /v1/runs/{id} received
	streamsOpen int    // …/events handlers that have not returned
	earlyGets   int    // GETs that arrived while a stream was open
}

// fakeWorker speaks just enough of ipcpd's /v1/runs API for the
// coordinator to fan points out to it. Each test scripts the event
// stream through events; everything else is fixed.
type fakeWorker struct {
	ts *httptest.Server

	// events serves the nth (from 1) follow of job j; ending the stream
	// is returning. nil opens the stream, finishes the job and returns.
	events func(fw *fakeWorker, w http.ResponseWriter, r *http.Request, j *fakeJob, n int)
	// refuse, when set, answers every POST /v1/runs in place of admission.
	refuse func(w http.ResponseWriter)

	mu         sync.Mutex
	jobs       map[string]*fakeJob
	posts      int
	conns      int      // TCP connections accepted
	requestIDs []string // X-Request-ID of every request, in arrival order
}

func startFakeWorker(t *testing.T, events func(*fakeWorker, http.ResponseWriter, *http.Request, *fakeJob, int)) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{events: events, jobs: map[string]*fakeJob{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", fw.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", fw.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/events", fw.handleEvents)
	fw.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fw.mu.Lock()
		fw.requestIDs = append(fw.requestIDs, r.Header.Get(serve.RequestIDHeader))
		fw.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	fw.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			fw.mu.Lock()
			fw.conns++
			fw.mu.Unlock()
		}
	}
	fw.ts.Start()
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *fakeWorker) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec serve.RunRequest
	if code, err := serve.DecodeRequest(w, r, &spec); err != nil {
		serve.WriteError(w, code, err)
		return
	}
	if fw.refuse != nil {
		fw.refuse(w)
		return
	}
	fw.mu.Lock()
	fw.posts++
	j := &fakeJob{id: fmt.Sprintf("j%06d", fw.posts), status: "queued"}
	fw.jobs[j.id] = j
	fw.mu.Unlock()
	serve.WriteJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": "queued"})
}

func (fw *fakeWorker) handleGet(w http.ResponseWriter, r *http.Request) {
	fw.mu.Lock()
	j := fw.jobs[r.PathValue("id")]
	if j == nil {
		fw.mu.Unlock()
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	j.gets++
	if j.streamsOpen > 0 {
		j.earlyGets++
	}
	body := map[string]any{"id": j.id, "status": j.status}
	if j.status == "done" {
		body["result"] = map[string]any{}
	}
	if j.err != "" {
		body["error"] = j.err
	}
	fw.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, body)
}

func (fw *fakeWorker) handleEvents(w http.ResponseWriter, r *http.Request) {
	fw.mu.Lock()
	j := fw.jobs[r.PathValue("id")]
	if j == nil {
		fw.mu.Unlock()
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	j.follows++
	j.streamsOpen++
	n := j.follows
	fw.mu.Unlock()
	defer func() {
		fw.mu.Lock()
		j.streamsOpen--
		fw.mu.Unlock()
	}()
	if fw.events == nil {
		openStream(w)
		fw.setStatus(j, "done")
		return
	}
	fw.events(fw, w, r, j, n)
}

// openStream sends what a follower sees first: the 200 and one line.
func openStream(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"kind":"queued"}`)
	w.(http.Flusher).Flush()
}

func (fw *fakeWorker) setStatus(j *fakeJob, status string) {
	fw.mu.Lock()
	j.status = status
	fw.mu.Unlock()
}

// newFakeFleetCoord returns a coordinator whose reaper stays out of the
// way (fake workers do not heartbeat): with a one-minute timeout, only
// an in-band signal can declare a worker lost inside a test.
func newFakeFleetCoord(t *testing.T) *testCoord {
	t.Helper()
	return startCoord(t, Options{HeartbeatTimeout: time.Minute}, "")
}

// acceptSweep submits req to c and returns the sweep's id.
func (c *testCoord) acceptSweep(t *testing.T, req serve.SweepRequest) string {
	t.Helper()
	return submitSweep(t, c.ts.URL, req)
}

// awaitSweep follows the sweep's event stream to its end (the sweep's
// end) and returns the merged report, which must be done.
func awaitSweep(t *testing.T, c *testCoord, id string, timeout time.Duration) sweepView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.ts.URL+"/v1/sweeps/"+id+"/events", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	v := getSweep(t, c.ts.URL, id)
	if v.Status != "done" {
		t.Fatalf("sweep %s not done within %s: %s, %d/%d done", id, timeout, v.Status, v.Done, v.Total)
	}
	return v
}

// await receives from ch or fails the test.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

var onePoint = serve.SweepRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}}}

// TestFollowOnePostOneStreamOneGet pins the per-point conversation: one
// POST, one event-stream follow, one GET — the GET only after the
// worker ended the stream — and the sweep's request id on all three.
// The sweep.point span accounts for the three phases.
func TestFollowOnePostOneStreamOneGet(t *testing.T) {
	c := newFakeFleetCoord(t)
	fw := startFakeWorker(t, nil)
	c.join(t, fw.ts.URL, 2)

	id := c.acceptSweep(t, serve.SweepRequest{
		RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994", "bwaves-98"}},
		L1D:     []string{"", "ipcp", "spp"},
	})
	sw := awaitSweep(t, c, id, 10*time.Second)
	if sw.Done != 6 || sw.Failed != 0 {
		t.Fatalf("sweep done=%d failed=%d, want 6/0", sw.Done, sw.Failed)
	}

	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.posts != 6 || len(fw.jobs) != 6 {
		t.Errorf("worker saw %d POSTs for %d jobs, want 6 and 6", fw.posts, len(fw.jobs))
	}
	for id, j := range fw.jobs {
		if j.follows != 1 || j.gets != 1 {
			t.Errorf("job %s: %d follows and %d GETs, want exactly 1 and 1", id, j.follows, j.gets)
		}
		if j.earlyGets != 0 {
			t.Errorf("job %s: GET arrived while its event stream was still open", id)
		}
	}
	if len(fw.requestIDs) != 18 {
		t.Errorf("worker saw %d requests, want 18 (3 per point)", len(fw.requestIDs))
	}
	for _, rid := range fw.requestIDs {
		if rid != sw.RequestID || rid == "" {
			t.Errorf("fan-out request carried X-Request-ID %q, want the sweep's %q", rid, sw.RequestID)
		}
	}

	points := 0
	for _, sp := range c.srv.Spans().Snapshot() {
		if sp.Name != "sweep.point" {
			continue
		}
		points++
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		sum := 0.0
		for _, k := range []string{"submit_ms", "follow_ms", "fetch_ms"} {
			ms, err := strconv.ParseFloat(attrs[k], 64)
			if err != nil || ms <= 0 {
				t.Errorf("sweep.point attr %s = %q, want a positive number of ms", k, attrs[k])
			}
			sum += ms
		}
		if durMS := sp.Dur.Seconds() * 1e3; sum > durMS+0.01 { // each attr is rounded to 1 µs
			t.Errorf("sweep.point phases sum to %.3f ms, more than the span's %.3f ms", sum, durMS)
		}
		if sp.RequestID != sw.RequestID {
			t.Errorf("sweep.point span request id = %q, want %q", sp.RequestID, sw.RequestID)
		}
	}
	if points != 6 {
		t.Errorf("%d sweep.point spans, want 6", points)
	}
}

// TestBrokenStreamReassignsAtOnce severs a job's event stream mid-job
// (the connection is hijacked and closed, as a kill -9 would leave it).
// The heartbeat timeout is a minute and the first worker keeps
// answering every other request, so only the broken stream can explain
// the point finishing on the second worker within a second.
func TestBrokenStreamReassignsAtOnce(t *testing.T) {
	c := newFakeFleetCoord(t)
	following, sever := make(chan struct{}), make(chan struct{})
	a := startFakeWorker(t, func(fw *fakeWorker, w http.ResponseWriter, r *http.Request, j *fakeJob, n int) {
		openStream(w)
		fw.setStatus(j, "running")
		close(following)
		<-sever
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})
	wa := c.join(t, a.ts.URL, 1)

	id := c.acceptSweep(t, onePoint)
	await(t, following, "the follow of the first attempt")
	b := startFakeWorker(t, nil)
	wb := c.join(t, b.ts.URL, 1)

	start := time.Now()
	close(sever)
	v := awaitSweep(t, c, id, 10*time.Second)
	if took := time.Since(start); took > time.Second {
		t.Errorf("point finished %s after the stream broke, want well under a second", took)
	}
	pt := v.Points[0]
	if pt.Status != serve.PointDone || pt.Worker != wb.ID || pt.Attempts != 2 {
		t.Errorf("point = %s on %s after %d attempts, want done on %s after 2", pt.Status, pt.Worker, pt.Attempts, wb.ID)
	}
	select {
	case <-wa.ctx.Done():
	default:
		t.Error("the worker whose stream broke was not declared lost")
	}
	if m := c.Metrics(); m.Workers.Lost != 1 || m.Points.Reassigned != 1 {
		t.Errorf("lost=%d reassigned=%d, want 1 and 1", m.Workers.Lost, m.Points.Reassigned)
	}
}

// TestCleanStreamEndIsNotCompletion covers a worker that ends a stream
// cleanly under a job that is still running (ipcpd does on shutdown):
// the status GET decides, the coordinator follows again on the same
// live worker, and nothing is declared lost or reassigned.
func TestCleanStreamEndIsNotCompletion(t *testing.T) {
	c := newFakeFleetCoord(t)
	fw := startFakeWorker(t, func(fw *fakeWorker, w http.ResponseWriter, r *http.Request, j *fakeJob, n int) {
		openStream(w)
		if n == 1 {
			fw.setStatus(j, "running")
			return // a clean end, the job not terminal
		}
		fw.setStatus(j, "done")
	})
	c.join(t, fw.ts.URL, 1)

	v := awaitSweep(t, c, c.acceptSweep(t, onePoint), 10*time.Second)
	if pt := v.Points[0]; pt.Status != serve.PointDone || pt.Attempts != 1 {
		t.Errorf("point = %s after %d attempts, want done after 1", pt.Status, pt.Attempts)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if j := fw.jobs["j000001"]; fw.posts != 1 || j.follows != 2 || j.gets != 2 {
		t.Errorf("posts=%d follows=%d gets=%d, want 1, 2 and 2 (re-follow, no resubmit)", fw.posts, j.follows, j.gets)
	}
	if m := c.Metrics(); m.Workers.Lost != 0 || m.Points.Reassigned != 0 {
		t.Errorf("lost=%d reassigned=%d, want 0 and 0", m.Workers.Lost, m.Points.Reassigned)
	}
}

// TestVanishedStreamIsWorkerLoss: a worker that answers a follow with a
// non-200 has forgotten the job it admitted (restarted without its
// journal) — the same verdict the status GET gives.
func TestVanishedStreamIsWorkerLoss(t *testing.T) {
	c := newFakeFleetCoord(t)
	asked := make(chan struct{})
	amnesiac := startFakeWorker(t, func(fw *fakeWorker, w http.ResponseWriter, r *http.Request, j *fakeJob, n int) {
		close(asked)
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
	})
	c.join(t, amnesiac.ts.URL, 1)
	id := c.acceptSweep(t, onePoint)
	await(t, asked, "the follow of the first attempt")
	healthy := startFakeWorker(t, nil)
	wh := c.join(t, healthy.ts.URL, 1)

	v := awaitSweep(t, c, id, 10*time.Second)
	if pt := v.Points[0]; pt.Status != serve.PointDone || pt.Worker != wh.ID || pt.Attempts != 2 {
		t.Errorf("point = %s on %s after %d attempts, want done on the healthy worker %s after 2",
			pt.Status, pt.Worker, pt.Attempts, wh.ID)
	}
	if m := c.Metrics(); m.Workers.Lost != 1 {
		t.Errorf("workers lost = %d, want 1 (the one that forgot its job)", m.Workers.Lost)
	}
}

// TestBackpressureWaitRacesWorkerLoss: a 429's Retry-After is honoured
// (the point is not resubmitted early), but the wait ends the moment
// the worker is lost, so a dying worker's hint cannot hold its points.
func TestBackpressureWaitRacesWorkerLoss(t *testing.T) {
	c := newFakeFleetCoord(t)
	refused := make(chan struct{}, 16) // one per 429 sent; more than the test can cause
	full := startFakeWorker(t, nil)
	full.refuse = func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "30")
		serve.WriteError(w, http.StatusTooManyRequests, fmt.Errorf("job queue full"))
		refused <- struct{}{}
	}
	wf := c.join(t, full.ts.URL, 1)
	id := c.acceptSweep(t, onePoint)
	await(t, refused, "the 429")
	for deadline := time.Now().Add(10 * time.Second); c.Metrics().Fanout.Retries == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never counted the 429 it was sent")
		}
	}
	idle := startFakeWorker(t, nil)
	wi := c.join(t, idle.ts.URL, 1)

	start := time.Now()
	c.markDead(wf, "test kill")
	v := awaitSweep(t, c, id, 10*time.Second)
	if took := time.Since(start); took > time.Second {
		t.Errorf("point finished %s after its backpressuring worker was lost, want at once", took)
	}
	if pt := v.Points[0]; pt.Status != serve.PointDone || pt.Worker != wi.ID {
		t.Errorf("point = %s on %s, want done on %s", pt.Status, pt.Worker, wi.ID)
	}
	if m := c.Metrics(); m.Fanout.Retries != 1 || len(refused) != 0 {
		t.Errorf("retries=%d with %d more 429s sent, want exactly the one awaited: Retry-After was not honoured",
			m.Fanout.Retries, len(refused))
	}
}

// TestSweepWaitsForFirstWorker: a sweep accepted by an empty fleet
// parks in pickWorker and completes once a worker registers.
func TestSweepWaitsForFirstWorker(t *testing.T) {
	c := newFakeFleetCoord(t)
	id := c.acceptSweep(t, onePoint)
	v := waitStatus(t, c.ts.URL, id, "running")
	if v.Points[0].Status != serve.PointPending {
		t.Fatalf("sweep on an empty fleet: point %s; want pending", v.Points[0].Status)
	}
	fw := startFakeWorker(t, nil)
	c.join(t, fw.ts.URL, 1)
	if v := awaitSweep(t, c, id, 10*time.Second); v.Done != 1 {
		t.Fatalf("sweep done=%d failed=%d after a worker registered, want 1/0", v.Done, v.Failed)
	}
}

// TestCloseAbortsBlockedSchedulers: Close returns promptly, and leaves
// no scheduler goroutine behind, whichever of its two blocking points a
// sweep is parked in. The sweep is left unfinished, for the next life's
// journal to replay. (Two coordinators, because the two cannot coexist
// in one: pickWorker blocks only while no worker is live, and a follow
// needs a live one.)
func TestCloseAbortsBlockedSchedulers(t *testing.T) {
	for _, parkedIn := range []string{"pickWorker", "getJob"} {
		t.Run(parkedIn, func(t *testing.T) {
			journal := t.TempDir()
			c := startCoord(t, Options{HeartbeatTimeout: time.Minute}, journal)
			if parkedIn == "getJob" {
				fw := startFakeWorker(t, func(fw *fakeWorker, w http.ResponseWriter, r *http.Request, j *fakeJob, n int) {
					openStream(w)
					<-r.Context().Done() // a job that never ends
				})
				c.join(t, fw.ts.URL, 1)
			}
			id := c.acceptSweep(t, onePoint)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if gs := schedulerGoroutines(); len(gs) > 0 && strings.Contains(strings.Join(gs, ""), "coord.(*Coordinator)."+parkedIn) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no scheduler goroutine ever parked in %s", parkedIn)
				}
			}

			closed := make(chan struct{})
			go func() {
				c.close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(2 * time.Second):
				t.Fatalf("Close did not return within 2s with a scheduler parked in %s", parkedIn)
			}
			if gs := schedulerGoroutines(); len(gs) != 0 {
				t.Errorf("%d scheduler goroutines outlived Close:\n%s", len(gs), strings.Join(gs, "\n\n"))
			}
			if lost := c.Metrics().Workers.Lost; lost != 0 {
				t.Errorf("Close declared %d workers lost; an aborted request is not a worker's death", lost)
			}
			next := startCoord(t, Options{HeartbeatTimeout: time.Minute}, journal)
			if v := getSweep(t, next.ts.URL, id); v.Status == "done" || v.Status == "failed" || v.Total != 1 || v.Points[0].Status != serve.PointPending {
				t.Errorf("sweep in the next life = %s with %d points (first %s), want it replayed unfinished with its point pending",
					v.Status, v.Total, v.Points[0].Status)
			}
		})
	}
}

// TestFanoutReusesConnections: every fan-out response is read to its
// end and closed on every path, so a 24-point group on a single-slot
// worker (72 requests) rides a handful of pooled connections rather
// than opening one per request.
func TestFanoutReusesConnections(t *testing.T) {
	c := newFakeFleetCoord(t)
	fw := startFakeWorker(t, nil)
	c.join(t, fw.ts.URL, 1)
	id := c.acceptSweep(t, serve.SweepRequest{
		RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}},
		L1D:     []string{"", "nl", "ipstride", "ipcp", "spp", "bop"},
		L2:      []string{"", "ipcp"},
		LLC:     []string{"", "nl"},
	})
	if v := awaitSweep(t, c, id, 20*time.Second); v.Done != 24 || v.Groups != 1 {
		t.Fatalf("sweep done=%d groups=%d, want 24 points in 1 group", v.Done, v.Groups)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if len(fw.requestIDs) != 72 {
		t.Errorf("worker saw %d requests, want 72", len(fw.requestIDs))
	}
	if fw.conns > 4 {
		t.Errorf("72 sequential requests opened %d connections, want a handful (<= 4)", fw.conns)
	}
}

// TestWorkerShutdownIsWorkerLoss: a worker whose own shutdown ends a
// point's job (serve.ErrShutdown, on a drain timeout or Close) has left
// the fleet; the simulation gave no verdict. The point reassigns to a
// live worker instead of failing for good.
func TestWorkerShutdownIsWorkerLoss(t *testing.T) {
	c := newFakeFleetCoord(t)
	following, shutdown := make(chan struct{}), make(chan struct{})
	closing := startFakeWorker(t, func(fw *fakeWorker, w http.ResponseWriter, r *http.Request, j *fakeJob, n int) {
		openStream(w)
		close(following)
		<-shutdown
		fw.mu.Lock()
		j.status, j.err = "failed", serve.ErrShutdown.Error()
		fw.mu.Unlock()
	})
	wc := c.join(t, closing.ts.URL, 1)
	id := c.acceptSweep(t, onePoint)
	await(t, following, "the follow of the first attempt")
	live := startFakeWorker(t, nil)
	wl := c.join(t, live.ts.URL, 1)

	close(shutdown)
	v := awaitSweep(t, c, id, 10*time.Second)
	if pt := v.Points[0]; pt.Status != serve.PointDone || pt.Worker != wl.ID || pt.Attempts != 2 || v.Failed != 0 {
		t.Errorf("point = %s on %s after %d attempts (%q), want done on %s after 2", pt.Status, pt.Worker, pt.Attempts, pt.Error, wl.ID)
	}
	select {
	case <-wc.ctx.Done():
	default:
		t.Error("the worker that shut down under its job was not declared lost")
	}
	if m := c.Metrics(); m.Points.Failed != 0 || m.Points.Reassigned != 1 {
		t.Errorf("failed=%d reassigned=%d, want 0 and 1", m.Points.Failed, m.Points.Reassigned)
	}
}

// waitStatus polls the sweep until its status is status.
func waitStatus(t *testing.T, coordURL, id, status string) sweepView {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if v := getSweep(t, coordURL, id); v.Status == status {
			return v
		}
	}
	t.Fatalf("sweep %s never reached %s", id, status)
	return sweepView{}
}

// schedulerGoroutines returns the stacks of goroutines inside a point
// attempt (submit, follow, fetch) or waiting for a worker.
func schedulerGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "coord.(*Coordinator).runPoint") || strings.Contains(g, "coord.(*Coordinator).pickWorker") {
			out = append(out, g)
		}
	}
	return out
}
