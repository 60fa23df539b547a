package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
)

// TestE2ERequestIDReachesWorkers: one sweep is one request id across
// the hop. Every request the coordinator fans out to a real worker
// shows up on that worker's /debug/trace under the X-Request-ID the
// client sent with POST /v1/sweeps — or, when it sent none, under the
// one minted for the POST, the sweep's request_id — and so do the job
// spans those requests caused.
func TestE2ERequestIDReachesWorkers(t *testing.T) {
	c, cts := newTestCoord(t)
	w := startWorker(t, cts.URL)
	waitWorkers(t, c, 1)

	body, _ := json.Marshal(serve.SweepRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}}, L1D: []string{"", "ipcp"}})
	req, _ := http.NewRequest(http.MethodPost, cts.URL+"/v1/sweeps", bytes.NewReader(body))
	req.Header.Set(serve.RequestIDHeader, "demo-sweep")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sv struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d, %v", resp.StatusCode, err)
	}
	tagged := sv.ID
	untaggedID := submitSweep(t, cts.URL, serve.SweepRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}}, L1D: []string{"", "ipcp"}})
	var untagged string
	for _, id := range []string{tagged, untaggedID} {
		v := waitSweep(t, cts.URL, id, 60*time.Second)
		if v.Done != 2 {
			t.Fatalf("sweep %s done=%d failed=%d, want 2/0", id, v.Done, v.Failed)
		}
		untagged = v.RequestID
	}

	resp, err = http.Get(w.ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				RequestID string `json:"request_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	// Per sweep: 2 points × (POST + follow + GET) HTTP spans, 2 job.run.
	httpSpans, jobSpans := map[string]int{}, map[string]int{}
	for _, ev := range trace.TraceEvents {
		switch {
		case strings.Contains(ev.Name, " /v1/runs"):
			httpSpans[ev.Args.RequestID]++
		case ev.Name == "job.run":
			jobSpans[ev.Args.RequestID]++
		}
	}
	for _, rid := range []string{"demo-sweep", untagged} {
		if httpSpans[rid] != 6 || jobSpans[rid] != 2 {
			t.Errorf("request id %q: %d /v1/runs request spans and %d job.run spans on the worker, want 6 and 2",
				rid, httpSpans[rid], jobSpans[rid])
		}
	}
	if len(httpSpans) != 2 || len(jobSpans) != 2 {
		t.Errorf("worker spans carry request ids %v / %v, want only the two sweeps'", httpSpans, jobSpans)
	}
}
