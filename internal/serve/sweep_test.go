package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/sim"
)

// stubFleet finishes every point of a sweep once release is closed.
type stubFleet struct{ release chan struct{} }

func (f *stubFleet) RunSweep(ctx context.Context, j *Job) error {
	select {
	case <-f.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	for _, g := range j.Groups() {
		for _, pt := range g {
			j.BeginPoint(pt, "w000001")
			j.FinishPoint(pt, &sim.Result{Cores: 1, Instructions: uint64(pt.Index)}, nil)
		}
	}
	return nil
}

func (f *stubFleet) Mount(*http.ServeMux)           {}
func (f *stubFleet) Snapshot(m MetricsSnapshot) any { return m }
func (f *stubFleet) Live() int                      { return 1 }

const gridBody = `{"workloads":["mcf-994","bwaves-98"],"l1d":["","ipcp"],"timeout_ms":50}`

// TestSweepJobLifecycle: a sweep is a job like any other — admitted
// with its points and groups, never reaped by a watchdog (its
// simulations are the workers' to judge), journaled with every point's
// outcome, and replayed by the next life: finished as it was, or, cut
// short, with its grid expanded again and every point pending. A
// coordinator refuses runs; a simulation daemon refuses sweeps.
func TestSweepJobLifecycle(t *testing.T) {
	journal := t.TempDir()
	fleet := &stubFleet{release: make(chan struct{})}
	s := newTestServer(t, Options{Fleet: fleet, JournalDir: journal, StallTimeout: 20 * time.Millisecond})
	resp, body := s.postRaw(t, "/v1/sweeps", gridBody)
	var sub submitView
	if err := json.Unmarshal(body, &sub); err != nil || resp.StatusCode != http.StatusAccepted ||
		sub.Points != 4 || sub.Groups != 2 || sub.Location != "/v1/sweeps/"+sub.ID {
		t.Fatalf("POST /v1/sweeps = %d %s", resp.StatusCode, body)
	}
	if resp, _ := s.postRaw(t, "/v1/runs", benchRunBody); resp.StatusCode != http.StatusNotFound {
		t.Errorf("coordinator POST /v1/runs = %d, want 404", resp.StatusCode)
	}
	j, _ := s.lookup(sub.ID)
	waitFor(t, 5*time.Second, func() bool { return j.State() == StateRunning })
	time.Sleep(200 * time.Millisecond) // ten stall timeouts without a progress report
	if st := j.State(); st != StateRunning {
		t.Fatalf("sweep on a live fleet = %s after ten stall timeouts, want running", st)
	}
	close(fleet.release)
	waitFor(t, 5*time.Second, func() bool { return j.State().terminal() })
	v := j.view()
	if v.Status != StateDone || v.sweepView == nil || v.Done != 4 || v.Total != 4 || v.Points[3].Spec.TimeoutMS != 50 {
		t.Fatalf("sweep = %+v", v)
	}
	s.Close()

	// A second sweep the next life cuts short: submit journaled, no finish.
	cut := newTestServer(t, Options{Fleet: &stubFleet{release: make(chan struct{})}, JournalDir: journal})
	_, body = cut.postRaw(t, "/v1/sweeps", gridBody)
	var sub2 submitView
	json.Unmarshal(body, &sub2)
	cut.Close()

	next := newTestServer(t, Options{Fleet: &stubFleet{release: make(chan struct{})}, JournalDir: journal})
	if j, ok := next.lookup(sub.ID); !ok || j.State() != StateDone || j.view().Points[2].Result.Instructions != 2 {
		t.Fatalf("finished sweep after replay = %v", ok)
	}
	j2, ok := next.lookup(sub2.ID)
	if !ok || j2.State().terminal() || len(j2.Groups()) != 2 || j2.view().Points[3].Status != PointPending {
		t.Fatalf("cut-short sweep after replay = %v", ok)
	}

	plain := newTestServer(t, Options{})
	if resp, _ := plain.postRaw(t, "/v1/sweeps", gridBody); resp.StatusCode != http.StatusNotFound {
		t.Errorf("simulation daemon POST /v1/sweeps = %d, want 404", resp.StatusCode)
	}
}

// FuzzSweepRequest holds the grid body, which the journal records and
// replay expands again, to that replay: whatever decodes and expands is
// re-expanded, after a trip through the submit record's encoding, to
// the identical points, and nothing expands past maxSweepPoints.
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(gridBody))
	f.Add([]byte(`{"l1d":["","nl","ipstride","ipcp","spp","bop"],"l2":["","ipcp"],"seed":7,"workloads":["mcf-994","lbm-94","gcc-2226","bwaves-2931"]}`))
	f.Add([]byte(`{"workloads":["mcf-994"],"l2":["","ipcp"],"l1_pq":4,"ipcp_l1":{"degree_gs":4}}`))
	f.Add([]byte(`{"points":[{"workloads":["mcf-994","lbm-94"],"l1d":"ipstride@l2","timeout_ms":5}],"timeout_ms":9}`))
	f.Add([]byte(`{"workloads":["mcf-994"],"l1d":["","","","","","","","",""],"l2":["","","","","","","","",""],"llc":["","","","","","","","",""]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		j, err := newSweepJob(&req)
		if err != nil {
			return
		}
		if len(j.points) > maxSweepPoints {
			t.Fatalf("%s expands to %d points", body, len(j.points))
		}
		rec, err := json.Marshal(submitRecord(j, 1))
		if err != nil {
			t.Fatalf("submit record does not encode: %v", err)
		}
		var back journalRecord
		if err := json.Unmarshal(rec, &back); err != nil || back.Sweep == nil {
			t.Fatalf("submit record does not decode: %v (%s)", err, rec)
		}
		again, err := back.Sweep.expand()
		if err != nil {
			t.Fatalf("journaled grid no longer expands: %v (%s)", err, rec)
		}
		specs := make([]RunRequest, len(j.points))
		for i, pt := range j.points {
			specs[i] = pt.Spec
		}
		first, _ := json.Marshal(specs)
		replayed, _ := json.Marshal(again)
		if !bytes.Equal(first, replayed) {
			t.Fatalf("points moved across the journal:\n %s\n %s", first, replayed)
		}
		for i := range again {
			if experiments.WarmupKey(experiments.Quick, again[i].RunSpec) != j.points[i].Group {
				t.Fatalf("point %d changed warmup group across the journal", i)
			}
		}
	})
}
