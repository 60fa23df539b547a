package sim

import (
	"context"
	"reflect"
	"testing"

	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// nextCounter counts the Next calls a seekable stream serves.
type nextCounter struct {
	trace.Seeker
	nexts int
}

func (c *nextCounter) Next(in *trace.Instr) bool {
	c.nexts++
	return c.Seeker.Next(in)
}

// discarder is a stream that counts the random numbers its seeks threw
// away (workload generators).
type discarder interface{ Discarded() uint64 }

// TestRestoreReplaysNothing: a fork seeks its streams to the snapshot's
// positions. Restoring a million-instruction warmup regenerates none of
// it — the fresh stream's Next is never called — and leaves the stream
// exactly where the warmed one stopped. A fork of the resident snapshot
// goes further: it copies the live random state the capture kept, so
// it discards no draw and replays no frame of the allocator, where a
// fork of the same snapshot decoded from bytes re-draws both.
func TestRestoreReplaysNothing(t *testing.T) {
	const warmup = 1_000_000
	w, err := workload.Named("exchange2-387")
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig(1)
	cfg.CacheWarmOnly = true
	warm, err := Build(cfg, []trace.Stream{w.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.RunWarmup(context.Background(), warmup); err != nil {
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cores[0].Seq < warmup {
		t.Fatalf("warmup dispatched %d instructions, want at least %d", snap.Cores[0].Seq, warmup)
	}

	fresh := &nextCounter{Seeker: w.New(3).(trace.Seeker)}
	sys, err := Build(cfg, []trace.Stream{fresh})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.nexts != 0 {
		t.Errorf("restoring a %d-instruction warmup called Next %d times, want 0", snap.Cores[0].Seq, fresh.nexts)
	}
	if got := fresh.Position(); !reflect.DeepEqual(got, snap.Cores[0].Stream) {
		t.Errorf("restored stream at %+v, snapshot recorded %+v", got, snap.Cores[0].Stream)
	}
	if n := fresh.Seeker.(discarder).Discarded(); n != 0 {
		t.Errorf("a resident fork discarded %d draws, want 0", n)
	}
	if n := sys.alloc.Replayed(); n != 0 {
		t.Errorf("a resident fork replayed %d allocator frames, want 0", n)
	}

	// The same snapshot through bytes takes the validated path, and
	// lands in the same state.
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	cold := w.New(3)
	csys, err := Build(cfg, []trace.Stream{cold})
	if err != nil {
		t.Fatal(err)
	}
	if err := csys.RestoreSnapshot(decoded); err != nil {
		t.Fatal(err)
	}
	if cold.(discarder).Discarded() == 0 || csys.alloc.Replayed() != snap.Alloc.Allocs {
		t.Errorf("a fork from bytes discarded %d draws and replayed %d of %d frames, want both re-drawn",
			cold.(discarder).Discarded(), csys.alloc.Replayed(), snap.Alloc.Allocs)
	}
	// Captured again, the decoded fork is the resident snapshot, live
	// state included: what a session adopting a spill keeps resident.
	again, err := csys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, snap) {
		t.Error("a snapshot restored from bytes and captured again differs from the resident one")
	}
}

// fuzzWorkloads cover the address sources whose cursors a snapshot
// carries: GS, phase (stride, irregular, complex-stride), many-IP, and a
// mix over a large loop body.
var fuzzWorkloads = []string{"lbm-94", "mcf-1554", "cactuBSSN-2421", "cassandra"}

// fuzzSystem builds a fresh 1-core CacheWarmOnly system with a small L2
// and LLC, so its snapshots — and the fuzzer's inputs — stay small.
func fuzzSystem(tb testing.TB, name string) *System {
	tb.Helper()
	w, err := workload.Named(name)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := PaperConfig(1)
	cfg.CacheWarmOnly = true
	cfg.L2.Sets, cfg.LLC.Sets = 64, 64
	sys, err := Build(cfg, []trace.Stream{w.New(1)})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// FuzzSnapshotDecode throws damaged bytes at what a fork does with a
// spilled snapshot: decode it, then restore it into a fresh system. It
// must never panic, hang, or spin on a huge draw or allocation count;
// every refusal is an error. Seeds are real encoded snapshots, one per
// workload in fuzzWorkloads (w picks the workload restored into).
func FuzzSnapshotDecode(f *testing.F) {
	for i, name := range fuzzWorkloads {
		sys := fuzzSystem(f, name)
		if err := sys.RunWarmup(context.Background(), 2_000); err != nil {
			f.Fatal(err)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		sys.Release()
		b, err := EncodeSnapshot(snap)
		if err != nil {
			f.Fatal(err)
		}
		// An undamaged seed goes all the way through.
		decoded, err := DecodeSnapshot(b)
		if err != nil {
			f.Fatal(err)
		}
		if err := fuzzSystem(f, name).RestoreSnapshot(decoded); err != nil {
			f.Fatalf("%s: seed snapshot refused: %v", name, err)
		}
		f.Add(uint8(i), b)
	}
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		sys := fuzzSystem(t, fuzzWorkloads[int(w)%len(fuzzWorkloads)])
		defer sys.Release()
		_ = sys.RestoreSnapshot(snap) // an error or nil; a panic fails the target
	})
}
