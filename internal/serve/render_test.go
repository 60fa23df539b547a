package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/sim"
)

var fixtureTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// fixtureJobs builds one job per terminal shape a GET can return, every
// field fixed, keyed by the name of its body under testdata/getjob/.
func fixtureJobs(t *testing.T) map[string]*Job {
	t.Helper()
	var spec RunRequest
	if err := json.Unmarshal([]byte(benchRunBody), &spec); err != nil {
		t.Fatal(err)
	}
	live := func(kind JobKind, id string) *Job {
		j := newJob(kind)
		j.ID, j.RequestID, j.Revision, j.submitted = id, "req-"+id, "rev", fixtureTime
		if kind == KindRun {
			j.Spec, j.key = &spec, spec.Key()
		}
		j.begin(func() {})
		return j
	}
	// settle pins the lifecycle times finish and begin took from the clock.
	settle := func(j *Job) *Job {
		j.mu.Lock()
		j.started, j.finished = fixtureTime.Add(time.Second), fixtureTime.Add(2500*time.Millisecond)
		j.mu.Unlock()
		return j
	}
	result := &sim.Result{Cores: 1, Instructions: 20000, IPC: []float64{1.25}}

	done := live(KindRun, "j000001")
	done.finish(result, nil, nil)
	failed := live(KindRun, "j000002")
	failed.finish(nil, nil, errors.New("boom"))
	stalled := live(KindRun, "j000003")
	stalled.markStalled()
	stalled.finish(nil, nil, errStalled)
	exp := live(KindExperiments, "j000004")
	exp.ExpIDs = []string{"fig7", "tab1"}
	exp.finish(nil, &experiments.Report{Results: []experiments.ExperimentResult{
		{ID: "fig7", Table: &experiments.Table{ID: "fig7", Title: "L1 prefetchers", Columns: []string{"speedup"},
			Rows: []experiments.Row{{Label: "IPCP", Values: []float64{1.5}}}}},
		{ID: "tab1", Err: errors.New("boom")},
	}}, nil)

	replayed := func(id string, kind JobKind, fin journalRecord) *Job {
		sub := journalRecord{Type: "submit", Time: fixtureTime, Job: id, Kind: kind, RequestID: "req-" + id, Revision: "rev"}
		if kind == KindRun {
			sub.Spec = &spec
		} else {
			sub.ExpIDs = []string{"tab1"}
		}
		fin.Type, fin.Time, fin.Job = "finish", fixtureTime.Add(2*time.Second), id
		return newReplayedJob(&jobHistory{submit: sub, finish: &fin})
	}
	return map[string]*Job{
		"run-done":            settle(done),
		"run-failed":          settle(failed),
		"run-stalled":         settle(stalled),
		"experiments-done":    settle(exp),
		"replayed-run-done":   replayed("j000005", KindRun, journalRecord{Outcome: StateDone, Result: result}),
		"replayed-run-failed": replayed("j000006", KindRun, journalRecord{Outcome: StateFailed, Error: "boom"}),
		"replayed-experiments-done": replayed("j000007", KindExperiments, journalRecord{Outcome: StateDone,
			Report: &reportView{Markdown: "### tab1 — storage\n", Failed: []failedView{{ID: "fig7", Error: "boom"}}}}),
	}
}

// TestTerminalBodiesMatchParentEncoder: a terminal job's GET body is
// byte for byte what the daemon sent when it re-encoded the view on
// every request. The testdata/getjob files were printed by that encoder
// (WriteJSON of the job's view) for the jobs fixtureJobs builds, not by
// today's code. The bytes arrive under a Content-Length, not chunked,
// and a second GET serves the first one's bytes.
func TestTerminalBodiesMatchParentEncoder(t *testing.T) {
	s := newTestServer(t, Options{})
	for name, j := range fixtureJobs(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "getjob", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.mu.Unlock()
		for i := 0; i < 2; i++ {
			resp, body := s.get(t, "/v1/runs/"+j.ID)
			if resp.StatusCode != http.StatusOK || string(body) != string(want) {
				t.Fatalf("%s: GET %d = %d\n%s\nwant\n%s", name, i, resp.StatusCode, body, want)
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte body",
					name, resp.ContentLength, resp.TransferEncoding, len(body))
			}
		}
		if n := testing.AllocsPerRun(20, func() { j.render() }); n != 0 {
			t.Errorf("%s: a rendered terminal job re-encodes (%v allocations per GET)", name, n)
		}
	}

	// A real result is kilobytes, past what net/http buffers before it
	// falls back to chunking: the length is still declared.
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp", L2: "ipcp"}}, http.StatusAccepted)
	s.await(t, v.ID, 10*time.Second)
	resp, body := s.get(t, "/v1/runs/"+v.ID)
	if len(body) < 4096 || resp.ContentLength != int64(len(body)) {
		t.Errorf("real result: Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
}

// TestRenderRacingFinish: a queued or running job's view changes, so it
// is encoded per GET and never kept, and GETs racing the job's finish
// never keep a view from before it. Run under -race, this is also the
// proof that render and finish share j.mu.
func TestRenderRacingFinish(t *testing.T) {
	for i := 0; i < 50; i++ {
		j := newJob(KindRun)
		j.ID = "j000001"
		j.render()
		j.begin(func() {})
		var wg, rendered sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			rendered.Add(1)
			go func() {
				defer wg.Done()
				j.render()
				rendered.Done()
				for {
					select {
					case <-stop:
						return
					default:
						j.render()
					}
				}
			}()
		}
		rendered.Wait()
		j.finish(&sim.Result{Cores: 1}, nil, nil)
		close(stop)
		wg.Wait()
		var v jobView
		if err := json.Unmarshal(j.render(), &v); err != nil || v.Status != StateDone || v.Result == nil {
			t.Fatalf("iteration %d: kept body after finish = %+v (%v)", i, v, err)
		}
	}
}
