package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/store"
)

// replayedDone boots a server over a journal segment an older daemon
// wrote: job j000001, finished, with the given spec.
func replayedDone(t *testing.T, spec string) *testServer {
	t.Helper()
	dir := t.TempDir()
	var seg []byte
	for _, payload := range []string{
		`{"type":"submit","time":"2026-01-02T03:04:05Z","job":"j000001","seq":1,"kind":"run",` +
			`"spec":` + spec + `,"request_id":"req-1","revision":"older"}`,
		`{"type":"finish","time":"2026-01-02T03:04:07Z","job":"j000001","outcome":"done","result":` + parentResultJSON + `}`,
	} {
		seg = store.AppendRecord(seg, []byte(payload))
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Options{JournalDir: dir})
}

// TestReplayedRefusedSpecIsNeverCoalesced: a segment an older daemon
// wrote holds a finished run whose spec this build refuses (a
// prefetcher it no longer registers). The job is still served by ID,
// but it never joins the coalescing map: a submission is looked up by
// key before it is validated, so the same body must still be a 400.
func TestReplayedRefusedSpecIsNeverCoalesced(t *testing.T) {
	s := replayedDone(t, `{"workloads":["bwaves-98"],"l1d":"ampm"}`)
	if job := s.await(t, "j000001", time.Second); job.Status != StateDone || job.Result == nil || job.Spec.L1D != "ampm" {
		t.Fatalf("replayed job = %+v", job)
	}
	if resp, body := s.postRaw(t, "/v1/runs", `{"workloads":["bwaves-98"],"l1d":"ampm"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resubmitting the refused spec = %d (%s), want 400", resp.StatusCode, body)
	}
	if m := s.Metrics(); m.Jobs.Coalesced != 0 || m.Jobs.Admitted != 0 || m.Journal.ReplayedJobs != 1 {
		t.Fatalf("jobs %+v, journal %+v; want nothing coalesced or admitted", m.Jobs, m.Journal)
	}
}

// TestReplayedRemovedKnobIsNeverCoalesced: the replayed run is an IPCP
// variant that set a knob this build no longer has. Ignoring the
// unknown field would make it the paper's IPCP, and a POST of the
// paper's IPCP would be answered with the variant's result. The spec
// decodes, so the rest of the segment replays, but it is refused: the
// paper's IPCP is a new job and the variant's own body is a 400.
func TestReplayedRemovedKnobIsNeverCoalesced(t *testing.T) {
	const removed = `{"workloads":["bwaves-98"],"ipcp_l1":{"temporal_entries":1024}}`
	s := replayedDone(t, removed)
	if job := s.await(t, "j000001", time.Second); job.Status != StateDone || job.Result == nil || job.Spec.IPCPL1 == nil {
		t.Fatalf("replayed job = %+v", job)
	}
	if resp, body := s.postRaw(t, "/v1/runs", `{"workloads":["bwaves-98"],"l1d":"ipcp"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submitting the paper's IPCP = %d (%s), want 202", resp.StatusCode, body)
	}
	if resp, body := s.postRaw(t, "/v1/runs", removed); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resubmitting the removed knob = %d (%s), want 400", resp.StatusCode, body)
	}
	if m := s.Metrics(); m.Jobs.Coalesced != 0 || m.Jobs.Admitted != 1 || m.Journal.ReplayedJobs != 1 {
		t.Fatalf("jobs %+v, journal %+v; want nothing coalesced and one admitted", m.Jobs, m.Journal)
	}
}

// TestRepeatedPostKeepsItsRefusals: coalescing before validation changes
// what a repeated submission costs, not what it is told. A negative
// timeout is a 400 and a draining daemon a 429, even for a spec the
// daemon has already finished.
func TestRepeatedPostKeepsItsRefusals(t *testing.T) {
	s := newTestServer(t, Options{})
	req := RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: 9017}}
	v := s.submitRun(t, req, http.StatusAccepted)
	s.await(t, v.ID, 10*time.Second)
	if again := s.submitRun(t, req, http.StatusOK); !again.Coalesced || again.ID != v.ID || again.Status != StateDone {
		t.Fatalf("repeated POST = %+v, want coalesced onto done %s", again, v.ID)
	}

	bad := req
	bad.TimeoutMS = -1
	if resp, body := s.post(t, "/v1/runs", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("repeated POST with timeout_ms -1 = %d (%s), want 400", resp.StatusCode, body)
	}

	s.StartDrain()
	resp, body := s.post(t, "/v1/runs", req)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("repeated POST while draining = %d (%s), Retry-After %q; want 429 with one",
			resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
	if m := s.Metrics(); m.Jobs.Coalesced != 1 || m.Jobs.Rejected != 1 {
		t.Fatalf("jobs = %+v, want 1 coalesced and 1 rejected", m.Jobs)
	}
}
