package experiments

import (
	"context"
	"io"
	"log/slog"
	"path/filepath"
	"testing"
	"time"

	"ipcp/internal/chaos"
	"ipcp/internal/telemetry"
)

// waitFor polls cond until it holds, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func checkpoints(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestCheckpointIsWrittenBehindTheResult holds the checkpoint write at
// its chaos point and shows the order of events write-behind promises:
// Run returns and a coalesced waiter wakes while the file does not
// exist, Flush blocks for as long as the write is held, and returns
// with the file in place.
func TestCheckpointIsWrittenBehindTheResult(t *testing.T) {
	held, letGo := make(chan struct{}), make(chan struct{})
	in := chaos.New(1)
	in.Add(chaos.Rule{Point: "checkpoint.save", Kind: chaos.KindCrash})
	// The "crash" parks the writer at the point instead of exiting.
	in.SetCrashFunc(func(string) { close(held); <-letGo })
	chaos.Enable(in)
	t.Cleanup(func() { chaos.Enable(nil) })

	dir := t.TempDir()
	s := NewSession(tiny)
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	// Park the leader inside its admission slot until a second caller
	// has coalesced onto it.
	gate := &concGate{release: make(chan struct{})}
	setGate(t, gate)
	spec := RunSpec{Workloads: []string{"conc-gate"}, Seed: 7005}
	ipc := make(chan float64, 2)
	spans := telemetry.NewSpanTracer(64)
	traced := telemetry.ContextWithSpanTracer(context.Background(), spans)
	run := func() {
		res, err := s.RunContext(traced, spec)
		if err != nil {
			t.Error(err)
			ipc <- 0
			return
		}
		ipc <- res.IPC[0]
	}
	go run()
	waitFor(t, "the leader to start", func() bool { n, _ := gate.stats(); return n == 1 })
	go run()
	waitFor(t, "the second caller to coalesce", func() bool { return s.Stats().Coalesced == 1 })
	close(gate.release)

	if a, b := <-ipc, <-ipc; a == 0 || a != b {
		t.Fatalf("leader and coalesced waiter saw IPC %v and %v", a, b)
	}
	<-held // the writer is parked in front of the file
	if got := checkpoints(t, dir); len(got) != 0 {
		t.Fatalf("checkpoint on disk before the held write was let go: %v", got)
	}
	if st := s.Stats(); st.PendingSaves != 1 || st.Executed != 1 {
		t.Fatalf("stats with the write held = %+v, want 1 pending save of 1 executed run", st)
	}
	flushed := make(chan struct{})
	go func() { s.Flush(); close(flushed) }()
	select {
	case <-flushed:
		t.Fatal("Flush returned while the checkpoint write was still held")
	case <-time.After(20 * time.Millisecond):
	}
	close(letGo)
	<-flushed
	if got := checkpoints(t, dir); len(got) != 1 {
		t.Fatalf("checkpoints after Flush = %v, want exactly one", got)
	}
	if st := s.Stats(); st.PendingSaves != 0 || st.StoreFailures != 0 {
		t.Fatalf("stats after Flush = %+v, want nothing pending and no failure", st)
	}

	// The trace tells the same story: the save is the leader's child,
	// and starts only after the leader's session.run span has ended.
	var lead, save *telemetry.Span
	for _, sp := range spans.Snapshot() {
		switch {
		case sp.Name == "checkpoint.save":
			save = &sp
		case sp.Name == "session.run" && spanAttr(sp, "outcome") == "executed":
			lead = &sp
		}
	}
	if lead == nil || save == nil {
		t.Fatalf("spans = %+v, want an executed session.run and a checkpoint.save", spans.Snapshot())
	}
	if save.Parent != lead.ID || save.Start.Before(lead.Start.Add(lead.Dur)) {
		t.Errorf("checkpoint.save (parent %d, start %v) is not a child of session.run %d starting after its end %v",
			save.Parent, save.Start, lead.ID, lead.Start.Add(lead.Dur))
	}
}

func spanAttr(sp telemetry.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestFailedBackgroundSaveLosesNoResult: a save that fails behind the
// result is counted where a synchronous one was — StoreFailures — and
// the result it failed to persist is still served.
func TestFailedBackgroundSaveLosesNoResult(t *testing.T) {
	in := chaos.New(1)
	in.Add(chaos.Rule{Point: "checkpoint.save", Kind: chaos.KindErr})
	chaos.Enable(in)
	t.Cleanup(func() { chaos.Enable(nil) })

	dir := t.TempDir()
	s := NewSession(tiny)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workloads: []string{"bwaves-98"}, Seed: 7006}
	first, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if st := s.Stats(); st.StoreFailures != 1 || st.PendingSaves != 0 || st.Faults != 0 {
		t.Fatalf("stats = %+v, want the failed save under StoreFailures and nothing else", st)
	}
	if got := checkpoints(t, dir); len(got) != 0 {
		t.Fatalf("failed save left %v on disk", got)
	}
	again, err := s.Run(spec)
	if err != nil || again != first {
		t.Fatalf("result after the failed save = %p, %v; want the memoized %p", again, err, first)
	}
	if st := s.Stats(); st.Executed != 1 || st.MemoHits != 1 {
		t.Fatalf("stats = %+v, want one execution and one memo hit", st)
	}
}
