package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
	"ipcp/internal/sim"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// e2eScale keeps every point in the low milliseconds; identical to the
// single-node sweep tests' scale so the reference results line up.
var e2eScale = experiments.Scale{Warmup: 2000, Measure: 5000, Seed: 1}

// Gate workloads let the kill test hold sweep points in the running
// state deterministically: their stream construction blocks until the
// gate opens. Four distinct names → four warmup-identity groups.
var (
	coordGateMu   sync.Mutex
	coordGateOpen chan struct{} // nil: gate off (streams build immediately)
)

func gatePoints(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	coordGateMu.Lock()
	coordGateOpen = ch
	coordGateMu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(func() {
		release()
		coordGateMu.Lock()
		coordGateOpen = nil
		coordGateMu.Unlock()
	})
	return release
}

func init() {
	for i := 0; i < 4; i++ {
		workload.Register(workload.Spec{
			Name: fmt.Sprintf("coord-gate-%d", i), Suite: "test",
			NewStream: func(seed int64) trace.Stream {
				coordGateMu.Lock()
				ch := coordGateOpen
				coordGateMu.Unlock()
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
}

// testWorker is one in-process ipcpd worker: a serve.Server, its
// httptest listener, and the agent keeping it registered.
type testWorker struct {
	srv    *serve.Server
	ts     *httptest.Server
	cancel context.CancelFunc
	killed bool
}

// startWorker boots a worker wired to the coordinator: shared-warmup
// methodology, private disk cache, the coordinator's blob store behind
// it, and an agent registering the listener's URL.
func startWorker(t *testing.T, coordURL string) *testWorker {
	t.Helper()
	return startWorkerAt(t, coordURL, e2eScale, 2)
}

// startWorkerAt is startWorker at scale with capacity slots.
func startWorkerAt(t *testing.T, coordURL string, scale experiments.Scale, capacity int) *testWorker {
	t.Helper()
	srv, err := serve.New(serve.Options{
		Scale:        scale,
		SharedWarmup: true,
		CacheDir:     t.TempDir(),
		RemoteBlobs:  NewBlobClient(coordURL, discardLog()),
		Workers:      capacity,
		QueueSize:    64,
		Log:          discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	StartAgent(ctx, coordURL, ts.URL, capacity, scale, discardLog())
	w := &testWorker{srv: srv, ts: ts, cancel: cancel}
	t.Cleanup(func() {
		w.kill()
		// The session writes checkpoints behind its runs; let the tail
		// land before the test's temp dirs are removed under it.
		srv.Session().Flush()
	})
	return w
}

// kill is the in-process stand-in for SIGKILL: the agent stops
// heartbeating, in-flight coordinator connections break, and the
// listener refuses everything after — from the coordinator's side the
// worker is gone mid-conversation.
func (w *testWorker) kill() {
	if w.killed {
		return
	}
	w.killed = true
	w.cancel()
	w.ts.CloseClientConnections()
	w.ts.Close()
	go w.srv.Close() // may wait on gated simulations; never blocks the test
}

// waitWorkers blocks until n workers are live on the coordinator.
func waitWorkers(t *testing.T, c *testCoord, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Metrics().Workers.Live >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("never saw %d live workers", n)
}

// submitSweep posts a sweep (a serve.SweepRequest, or a raw body) and
// returns its id.
func submitSweep(t *testing.T, coordURL string, req any) string {
	t.Helper()
	code, id := postSweep(t, coordURL, req)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("POST /v1/sweeps = %d (id %q), want 202", code, id)
	}
	return id
}

// sweepView is the part of GET /v1/sweeps/{id} these tests read.
type sweepView struct {
	ID        string        `json:"id"`
	Status    string        `json:"status"`
	RequestID string        `json:"request_id"`
	Total     int           `json:"total"`
	Done      int           `json:"done"`
	Failed    int           `json:"failed"`
	Groups    int           `json:"groups"`
	Points    []serve.Point `json:"points"`
}

// getSweep fetches the merged report.
func getSweep(t *testing.T, coordURL, id string) sweepView {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v sweepView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitSweep polls until the sweep completes and returns the report.
func waitSweep(t *testing.T, coordURL, id string, timeout time.Duration) sweepView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := getSweep(t, coordURL, id)
		if v.Status == "done" {
			return v
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not complete within %s", id, timeout)
	return sweepView{}
}

// TestE2EDistributedSweepMatchesSingleNode is the tentpole acceptance
// test: a 12-point tracked grid submitted as one POST /v1/sweeps to a
// coordinator with 3 workers completes with per-point results
// byte-identical to single-node shared-warmup runs, streams partial
// aggregation on /events, and reports fan-out and blob counters on
// /metrics. Then the fleet is replaced by one fresh worker and the same
// grid is re-submitted: every point must be served from the shared blob
// store without a single simulation.
func TestE2EDistributedSweepMatchesSingleNode(t *testing.T) {
	c, cts := newTestCoord(t)
	workers := []*testWorker{
		startWorker(t, cts.URL),
		startWorker(t, cts.URL),
		startWorker(t, cts.URL),
	}
	waitWorkers(t, c, 3)

	req := serve.SweepRequest{
		RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994", "bwaves-98"}},
		L1D:     []string{"", "ipcp", "spp"},
		L2:      []string{"", "ipcp"},
	}
	id := submitSweep(t, cts.URL, req)

	// Follow the events stream while the sweep runs: every line carries
	// the tally, its counts must be monotonic and the final line must be
	// the terminal "done" event carrying the full tally.
	events := make(chan []serve.JobEvent, 1)
	go func() {
		var got []serve.JobEvent
		resp, err := http.Get(cts.URL + "/v1/sweeps/" + id + "/events")
		if err == nil {
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev serve.JobEvent
				if json.Unmarshal(sc.Bytes(), &ev) == nil {
					got = append(got, ev)
				}
			}
			resp.Body.Close()
		}
		events <- got
	}()

	view := waitSweep(t, cts.URL, id, 60*time.Second)
	if view.Total != 12 || view.Done != 12 || view.Failed != 0 {
		t.Fatalf("sweep finished total=%d done=%d failed=%d, want 12/12/0",
			view.Total, view.Done, view.Failed)
	}
	if view.Groups != 2 {
		t.Errorf("sweep grouped into %d warmup identities, want 2", view.Groups)
	}

	// The grid's two warmup groups started on two distinct workers, and
	// each warmed once in the whole fleet: a third worker that helps
	// forks a group's spill from the blob store.
	byWorker := map[string]bool{}
	for _, pt := range view.Points {
		byWorker[pt.Worker] = true
	}
	if len(byWorker) < 2 {
		t.Errorf("points ran on %d workers, want at least 2 (one per warmup group)", len(byWorker))
	}
	misses := 0
	for _, w := range workers {
		misses += w.srv.Metrics().Session.SnapshotMisses
	}
	if misses != 2 {
		t.Errorf("the fleet warmed %d times, want 2 (once per warmup group)", misses)
	}

	// Byte-identity against one session's shared-warmup runs of the same
	// grid in the same order.
	var specs []experiments.RunSpec
	for _, w := range req.Workloads {
		for _, l1d := range req.L1D {
			for _, l2 := range req.L2 {
				specs = append(specs, experiments.RunSpec{Workloads: []string{w}, L1D: l1d, L2: l2})
			}
		}
	}
	ref := experiments.NewSession(e2eScale)
	want := make([]*sim.Result, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = ref.RunShared(spec); err != nil {
			t.Fatalf("reference spec %d: %v", i, err)
		}
	}
	for i, pt := range view.Points {
		if pt.Index != i {
			t.Fatalf("point %d reported index %d: per-point order lost", i, pt.Index)
		}
		got, err := json.Marshal(pt.Result)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("point %d: distributed result diverges from a single-node run\ngot:  %s\nwant: %s",
				i, got, exp)
		}
	}

	// Partial aggregation arrived on the follow-stream.
	evs := <-events
	if len(evs) < 15 { // queued + started + 12 points + done
		t.Fatalf("events stream delivered %d lines, want >= 15", len(evs))
	}
	last := 0
	for _, ev := range evs {
		if ev.Tally == nil {
			t.Fatalf("event %+v carries no tally", ev)
		}
		if ev.Done < last {
			t.Errorf("aggregation went backwards: done=%d after %d", ev.Done, last)
		}
		last = ev.Done
		if ev.Total != 12 {
			t.Errorf("event total = %d, want 12", ev.Total)
		}
	}
	if fin := evs[len(evs)-1]; fin.Kind != "done" || fin.Done != 12 {
		t.Errorf("final event = %+v, want kind=done done=12", fin)
	}

	// Fan-out and blob counters are live on /metrics — JSON...
	m := c.Metrics()
	if m.Fanout.Submitted < 12 {
		t.Errorf("fanout submitted = %d, want >= 12", m.Fanout.Submitted)
	}
	if m.Points.Done != 12 {
		t.Errorf("points done = %d, want 12", m.Points.Done)
	}
	if m.Blobs.Puts == 0 {
		t.Error("no blobs were pushed to the shared store")
	}
	// ...and in the Prometheus exposition.
	reqProm, _ := http.NewRequest(http.MethodGet, cts.URL+"/metrics", nil)
	reqProm.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(reqProm)
	if err != nil {
		t.Fatal(err)
	}
	promBody := new(bytes.Buffer)
	promBody.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"ipcpc_points_total{outcome=\"done\"} 12",
		"ipcpc_fanout_total{kind=\"submitted\"}",
		"ipcpc_blob_requests_total{op=\"put\"}",
		"ipcpc_workers_live 3",
	} {
		if !strings.Contains(promBody.String(), metric) {
			t.Errorf("Prometheus exposition missing %q", metric)
		}
	}
	// Per-worker span lanes: every point span is stamped with its
	// worker's id.
	lanes := map[string]int{}
	for _, sp := range c.srv.Spans().Snapshot() {
		if sp.Name == "sweep.point" {
			lanes[sp.JobID]++
		}
	}
	if len(lanes) != len(byWorker) {
		t.Errorf("sweep.point spans span %d worker lanes, want %d, one per worker that ran points (%v)", len(lanes), len(byWorker), lanes)
	}

	// --- shared-store replay: a fresh worker, an empty cache, zero
	// simulations ---------------------------------------------------
	for _, w := range workers {
		// Checkpoints are pushed behind the jobs that produced them: the
		// replay below is of a fleet that drained, not one that crashed
		// with PUTs in flight (those points would simply re-simulate).
		w.srv.Session().Flush()
		w.kill()
	}
	fresh := startWorker(t, cts.URL)
	waitWorkers(t, c, 1)

	id2 := submitSweep(t, cts.URL, req)
	view2 := waitSweep(t, cts.URL, id2, 60*time.Second)
	if view2.Done != 12 || view2.Failed != 0 {
		t.Fatalf("replay sweep done=%d failed=%d, want 12/0", view2.Done, view2.Failed)
	}
	for i, pt := range view2.Points {
		got, _ := json.Marshal(pt.Result)
		exp, _ := json.Marshal(want[i])
		if !bytes.Equal(got, exp) {
			t.Errorf("replay point %d diverges", i)
		}
	}
	st := fresh.srv.Metrics()
	if st.Session.Executed != 0 {
		t.Errorf("fresh worker executed %d simulations, want 0 (all points from the shared store)",
			st.Session.Executed)
	}
	if st.Session.RemoteBlobHits < 12 {
		t.Errorf("fresh worker remote blob hits = %d, want >= 12", st.Session.RemoteBlobHits)
	}
	if hits := c.Metrics().Blobs.Hits; hits < 12 {
		t.Errorf("coordinator blob hits = %d, want >= 12", hits)
	}
}

// TestE2EWorkerKillMidSweepReassigns is the chaos acceptance test: one
// worker dies mid-sweep (agent gone, connections severed — the
// in-process SIGKILL) and the coordinator reassigns its outstanding
// points to the survivors. Zero acknowledged points are lost: every
// point of the accepted sweep reports a result.
func TestE2EWorkerKillMidSweepReassigns(t *testing.T) {
	c, cts := newTestCoord(t)
	workers := []*testWorker{
		startWorker(t, cts.URL),
		startWorker(t, cts.URL),
		startWorker(t, cts.URL),
	}
	waitWorkers(t, c, 3)

	release := gatePoints(t)
	req := serve.SweepRequest{
		RunSpec: experiments.RunSpec{Workloads: []string{"coord-gate-0", "coord-gate-1", "coord-gate-2", "coord-gate-3"}},
		L1D:     []string{"", "ipcp", "spp"},
		L2:      []string{"", "ipcp"},
	}
	id := submitSweep(t, cts.URL, req) // 24 points, 4 warmup groups

	// Wait until every worker holds running points, so the kill is
	// guaranteed to strand some mid-flight.
	victim := workers[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		view := getSweep(t, cts.URL, id)
		running := map[string]int{}
		for _, pt := range view.Points {
			if pt.Status == "running" {
				running[pt.Worker]++
			}
		}
		if len(running) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("points never spread across 3 workers (running on %v)", running)
		}
		time.Sleep(20 * time.Millisecond)
	}

	victim.kill()
	release()

	view := waitSweep(t, cts.URL, id, 120*time.Second)
	if view.Total != 24 || view.Done != 24 || view.Failed != 0 {
		t.Fatalf("post-kill sweep total=%d done=%d failed=%d, want 24/24/0 (zero lost points)",
			view.Total, view.Done, view.Failed)
	}
	m := c.Metrics()
	if m.Points.Reassigned == 0 {
		t.Error("no points were reassigned — the kill missed the sweep")
	}
	if m.Workers.Lost == 0 {
		t.Error("the killed worker was never declared lost")
	}
	// Reassigned points record multiple attempts in the merged report.
	multi := 0
	for _, pt := range view.Points {
		if pt.Attempts > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no point reports a second attempt after reassignment")
	}
}
