package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
)

// These tests hold point placement: a group's points spread over the
// fleet, each group warms once in the whole fleet, placement never
// changes a result, and the fleet runs at one scale.

// placeScale makes a point long enough (a few milliseconds) that a
// costly group's spill lands while most of its points are still
// pending.
var placeScale = experiments.Scale{Warmup: 20_000, Measure: 20_000, Seed: 1}

// skewedGrid is a 24-point grid in three warmup groups: the grid's
// 4 points per workload, plus 12 explicit mcf-994 points, so the
// mcf-994 group has 16 points — four times each other group's cost.
func skewedGrid() serve.SweepRequest {
	req := serve.SweepRequest{
		RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994", "lbm-94", "gcc-2226"}},
		L1D:     []string{"", "ipcp"},
		L2:      []string{"", "ipcp"},
	}
	for _, l1d := range []string{"nl", "ipstride", "spp", "bop", "mlop", "sms"} {
		for _, l2 := range []string{"", "ipcp"} {
			var p serve.RunRequest
			p.Workloads, p.L1D, p.L2 = []string{"mcf-994"}, l1d, l2
			req.Points = append(req.Points, p)
		}
	}
	return req
}

// TestCostlyGroupSpreadsAcrossWorkers: with one group four times
// costlier than the rest, both workers run points of it — the second
// forks the first's warmup spill from the blob store — and the fleet
// warms each group exactly once. Placing whole groups runs the costly
// group on one worker only.
func TestCostlyGroupSpreadsAcrossWorkers(t *testing.T) {
	c, cts := newTestCoord(t)
	workers := []*testWorker{startWorkerAt(t, cts.URL, placeScale, 1), startWorkerAt(t, cts.URL, placeScale, 1)}
	waitWorkers(t, c, 2)

	v := waitSweep(t, cts.URL, submitSweep(t, cts.URL, skewedGrid()), 60*time.Second)
	if v.Total != 24 || v.Done != 24 || v.Groups != 3 {
		t.Fatalf("sweep total=%d done=%d groups=%d, want 24 points in 3 groups, all done", v.Total, v.Done, v.Groups)
	}
	costly := map[string]int{}
	for _, pt := range v.Points {
		if pt.Spec.Workloads[0] == "mcf-994" {
			costly[pt.Worker]++
		}
	}
	if len(costly) != 2 {
		t.Errorf("the costly group's points ran on %v, want both workers", costly)
	}
	misses, remote := 0, 0
	for _, w := range workers {
		st := w.srv.Metrics().Session
		misses += st.SnapshotMisses
		remote += st.RemoteBlobHits
	}
	if misses != v.Groups {
		t.Errorf("the fleet warmed %d times, want %d (once per group)", misses, v.Groups)
	}
	if remote < 1 {
		t.Errorf("no worker forked a spill from the blob store (remote_blob_hits %d)", remote)
	}
}

// TestPlacementKeepsTheReport: the merged report of a sweep is the same
// whichever fleet runs it — byte for byte, point for point — on one
// worker or spread over two.
func TestPlacementKeepsTheReport(t *testing.T) {
	report := func(workers int) []byte {
		c, cts := newTestCoord(t)
		for i := 0; i < workers; i++ {
			startWorkerAt(t, cts.URL, placeScale, 1)
		}
		waitWorkers(t, c, workers)
		v := waitSweep(t, cts.URL, submitSweep(t, cts.URL, skewedGrid()), 60*time.Second)
		if v.Done != v.Total {
			t.Fatalf("%d-worker sweep: %d of %d points done", workers, v.Done, v.Total)
		}
		type merged struct {
			Index  int
			Spec   serve.RunRequest
			Group  string
			Status serve.PointStatus
			Result json.RawMessage
		}
		var out []merged
		for _, pt := range v.Points {
			res, err := json.Marshal(pt.Result)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, merged{pt.Index, pt.Spec, pt.Group, pt.Status, res})
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one, two := report(1), report(2)
	if !bytes.Equal(one, two) {
		t.Error("the 2-worker sweep's merged report differs from the 1-worker sweep's")
	}
}

// TestRegisterRefusesAnotherScale: every live worker runs at one scale,
// so a worker registering at another is answered 409 — and, once the
// fleet is empty, the next registrant sets the scale again.
func TestRegisterRefusesAnotherScale(t *testing.T) {
	c, cts := newTestCoord(t)
	post := func(url string, scale experiments.Scale) int {
		body, _ := json.Marshal(registerRequest{URL: url, Capacity: 1, Scale: scale})
		resp, err := http.Post(cts.URL+"/v1/workers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	other := e2eScale
	other.Measure *= 2
	if code := post("http://127.0.0.1:4441", e2eScale); code != http.StatusCreated {
		t.Fatalf("first worker: %d, want 201", code)
	}
	if code := post("http://127.0.0.1:4442", other); code != http.StatusConflict {
		t.Errorf("a worker at another scale: %d, want 409", code)
	}
	if code := post("http://127.0.0.1:4443", e2eScale); code != http.StatusCreated {
		t.Errorf("a second worker at the fleet's scale: %d, want 201", code)
	}
	// The same URL coming back at another scale supersedes itself, but
	// not the other live worker's scale.
	if code := post("http://127.0.0.1:4441", other); code != http.StatusConflict {
		t.Errorf("a re-registration at another scale beside a live worker: %d, want 409", code)
	}
	c.mu.Lock()
	for _, w := range c.workers {
		c.markDeadLocked(w, "test")
	}
	c.mu.Unlock()
	if code := post("http://127.0.0.1:4442", other); code != http.StatusCreated {
		t.Errorf("a worker at a new scale on an empty fleet: %d, want 201", code)
	}
	if m := c.Metrics(); m.Workers.Live != 1 {
		t.Errorf("live workers = %d, want 1", m.Workers.Live)
	}
}
