package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ipcp/internal/experiments"
)

// submitExperiments posts an experiments job and returns the live job.
func (s *testServer) submitExperiments(t *testing.T, req experimentsRequest) *Job {
	t.Helper()
	resp, body := s.post(t, "/v1/experiments", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/experiments = %d (%s)", resp.StatusCode, body)
	}
	var v submitView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	j, ok := s.lookup(v.ID)
	if !ok {
		t.Fatalf("job %s vanished", v.ID)
	}
	return j
}

// TestExperimentsJobDeadlineCancelsRuns: an experiments job's deadline
// reaches the simulations it runs. A fig8 job given a small fraction of
// its run time ends failed with a deadline error, and no simulation of
// it starts after the terminal event.
func TestExperimentsJobDeadlineCancelsRuns(t *testing.T) {
	// fig8 here is ~100 simulations, over a second on two CPUs without
	// -race; the job gets 100 ms.
	s := newTestServer(t, Options{Workers: 1, Scale: experiments.Quick})
	j := s.submitExperiments(t, experimentsRequest{IDs: []string{"fig8"}, TimeoutMS: 100})

	waitFor(t, 30*time.Second, func() bool { return j.State().terminal() })
	executed := s.Session().Executed()
	if st, err := j.State(), j.Err(); st != StateFailed || err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("fig8 job past its deadline = %s (%v), want failed with a deadline error", st, err)
	}
	time.Sleep(300 * time.Millisecond)
	if now := s.Session().Executed(); now != executed {
		t.Fatalf("session.executed grew from %d to %d after the job's terminal event", executed, now)
	}
}

// TestWatchdogSparesHealthyExperimentsJob: the watchdog judges an
// experiments job by its simulations' progress reports, so a healthy
// job that runs longer than StallTimeout (about twice as long without
// -race, over twenty times with it) ends done.
func TestWatchdogSparesHealthyExperimentsJob(t *testing.T) {
	s := newTestServer(t, Options{
		Workers:      1,
		Scale:        experiments.Scale{Warmup: 8_000, Measure: 20_000, MaxTraces: 8, Mixes: 1, Seed: 1},
		StallTimeout: 200 * time.Millisecond,
	})
	j := s.submitExperiments(t, experimentsRequest{IDs: []string{"fig8"}})

	waitFor(t, 60*time.Second, func() bool { return j.State().terminal() })
	if st := j.State(); st != StateDone {
		t.Fatalf("healthy fig8 job = %s (%v), want done", st, j.Err())
	}
	if m := s.Metrics(); m.Jobs.Stalled != 0 || m.Jobs.Completed != 1 {
		t.Fatalf("jobs stalled = %d, completed = %d, want 0/1", m.Jobs.Stalled, m.Jobs.Completed)
	}
}

// TestExperimentsJobTracedWithProgress: an experiments job's
// simulations are traced under the job and report progress to it, and
// its events announce every experiment's start before any finishes,
// then one terminal event per experiment.
func TestExperimentsJobTracedWithProgress(t *testing.T) {
	s := newTestServer(t, Options{Scale: experiments.Scale{Warmup: 2_000, Measure: 5_000, MaxTraces: 1, Mixes: 1, Seed: 1}})
	ids := []string{"fig10", "tab1", "fig12"}
	j := s.submitExperiments(t, experimentsRequest{IDs: ids})
	if v := s.await(t, j.ID, 30*time.Second); v.Status != StateDone {
		t.Fatalf("experiments job = %+v", v)
	}

	events, _, _ := j.eventsSince(0)
	starts, ends := map[string]int{}, map[string]int{}
	var order []string
	for _, e := range events {
		switch e.Kind {
		case "experiment-start":
			starts[e.Msg]++
		case "experiment-done", "experiment-failed":
			ends[strings.TrimSuffix(strings.Fields(e.Msg)[0], ":")]++
		default:
			continue
		}
		order = append(order, e.Kind)
	}
	for _, id := range ids {
		if starts[id] != 1 || ends[id] != 1 {
			t.Errorf("%s: %d start and %d terminal events, want 1 and 1 (events %+v)", id, starts[id], ends[id], events)
		}
	}
	for i, kind := range order {
		if (i < len(ids)) != (kind == "experiment-start") {
			t.Errorf("experiment events %v: want every start before any terminal event", order)
			break
		}
	}

	_, body := s.get(t, "/v1/runs/"+j.ID+"/trace")
	if n := bytes.Count(body, []byte(`"session.run"`)); n == 0 {
		t.Errorf("job trace has no session.run span:\n%s", body)
	}
	_, body = s.get(t, "/v1/runs/"+j.ID+"/progress")
	var p struct {
		Phase string `json:"phase"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Phase == "" {
		t.Errorf("/progress names no phase: %s", body)
	}
}
