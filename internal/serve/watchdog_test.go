package serve

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"ipcp/internal/experiments"
)

// TestWatchdogReapsStalledJob: a job whose simulation makes no progress
// past StallTimeout terminates as "stalled", its worker slot is
// reclaimed (a healthy job completes on the same single worker while
// the wedged simulation is still blocked), and the dead job no longer
// pins the coalescing key.
func TestWatchdogReapsStalledJob(t *testing.T) {
	gateJobs(t) // never released until cleanup: the simulation is wedged
	s := newTestServer(t, Options{
		Workers: 1, QueueSize: 8,
		StallTimeout: 50 * time.Millisecond, // scanned every 12.5ms
	})
	req := RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9001}}
	v := s.submitRun(t, req, http.StatusAccepted)

	j, ok := s.lookup(v.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	waitFor(t, 5*time.Second, func() bool { return j.State() == StateStalled })
	if err := j.Err(); err == nil {
		t.Fatal("stalled job carries no error")
	}
	kinds := map[string]bool{}
	for _, e := range eventKinds(t, s, v.ID) {
		kinds[e] = true
	}
	if !kinds["stall-detected"] || !kinds["stalled"] {
		t.Fatalf("stalled job events = %v", kinds)
	}
	if m := s.Metrics(); m.Jobs.Stalled != 1 {
		t.Fatalf("stalled counter = %d, want 1", m.Jobs.Stalled)
	}

	// Slot reclaimed: the single worker, whose previous simulation is
	// still wedged on the gate, completes a healthy job.
	hv := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: 9002}}, http.StatusAccepted)
	if job := s.await(t, hv.ID, 10*time.Second); job.Status != StateDone {
		t.Fatalf("healthy job after reap = %+v", job)
	}

	// The stalled job does not pin byKey: resubmitting the same spec
	// admits a fresh job instead of coalescing onto the corpse.
	again := s.submitRun(t, req, http.StatusAccepted)
	if again.Coalesced || again.ID == v.ID {
		t.Fatalf("resubmission after stall = %+v, want a fresh job", again)
	}
}

// TestDeadlineSheddingRejects: once a queued job has outlived its own
// deadline, new submissions are shed with 429 + Retry-After instead of
// queueing behind work that is guaranteed to time out.
func TestDeadlineSheddingRejects(t *testing.T) {
	release := gateJobs(t)
	s := newTestServer(t, Options{Workers: 1, QueueSize: 8})

	// Job 1 wedges the single worker; job 2 queues with a 20ms deadline
	// it can never meet.
	first := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9003}}, http.StatusAccepted)
	waitFor(t, time.Second, func() bool { return s.Metrics().InFlight == 1 })
	s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9004}, TimeoutMS: 20}, http.StatusAccepted)

	time.Sleep(40 * time.Millisecond) // let the queued deadline lapse
	resp, body := s.post(t, "/v1/runs", RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"serve-gate"}, Seed: 9005}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed-backlog submission = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}
	if m := s.Metrics(); m.Jobs.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", m.Jobs.Shed)
	}

	release()
	s.await(t, first.ID, 10*time.Second)
}

// TestRetryAfterJitter: the hint stays within base ± 25% and does not
// collapse onto a single value.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		v := retryAfter()
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 3 {
			t.Fatalf("Retry-After = %q, want an integer in [1,3]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter collapsed onto %v", seen)
	}
}
