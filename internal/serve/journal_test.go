package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"ipcp/internal/chaos"
	"ipcp/internal/experiments"
	"ipcp/internal/sim"
)

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// TestJournalRoundTripAndReplay: records appended in one life are
// merged per job and replayed in the next, and replay compacts the old
// segments into one canonical segment.
func TestJournalRoundTripAndReplay(t *testing.T) {
	dir := t.TempDir()
	j, replayed, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replayed))
	}
	spec := &RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: 9006}}
	res := &sim.Result{IPC: []float64{2.5}}
	recs := []journalRecord{
		{Type: "submit", Time: time.Now(), Job: "j000001", Seq: 1, Kind: KindRun, Spec: spec, RequestID: "r-1"},
		{Type: "start", Time: time.Now(), Job: "j000001"},
		{Type: "finish", Time: time.Now(), Job: "j000001", Outcome: StateDone, Result: res},
		{Type: "submit", Time: time.Now(), Job: "j000002", Seq: 2, Kind: KindRun, Spec: spec},
		{Type: "start", Time: time.Now(), Job: "j000002"},
		// j000002 never finishes: the crash takes it mid-run.
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, replayed, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(replayed))
	}
	done, unfinished := replayed[0], replayed[1]
	if done.submit.Job != "j000001" || done.finish == nil || done.finish.Outcome != StateDone ||
		done.finish.Result == nil || done.finish.Result.IPC[0] != 2.5 {
		t.Fatalf("finished job replayed as %+v", done)
	}
	if done.submit.RequestID != "r-1" || done.submit.Spec == nil || done.submit.Spec.Seed != 9006 {
		t.Fatalf("identity lost in replay: %+v", done)
	}
	if unfinished.submit.Job != "j000002" || unfinished.finish != nil {
		t.Fatalf("unfinished job replayed as %+v", unfinished)
	}
	if d := j2.damaged.Load(); d != 0 {
		t.Fatalf("clean journal reported %d damaged frames", d)
	}

	// Compaction: the original segment is gone, replaced by one
	// compacted segment plus the new active one.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 2 {
		t.Fatalf("segments after compaction = %v, want compacted + active", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("pre-compaction segment survived (err=%v)", err)
	}
}

// TestJournalOldStartRecordsReplayTheSame: a segment written by a daemon
// that still journaled submit/start/finish triples replays to exactly
// the jobs — and compacts to exactly the bytes — of the two-record form
// this daemon writes. The "start" record is an unknown type now:
// skipped, not damage.
func TestJournalOldStartRecordsReplayTheSame(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spec := &RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: 9006}}
	var two []journalRecord
	for i, id := range []string{"j000001", "j000002", "j000003"} {
		two = append(two, journalRecord{Type: "submit", Time: at, Job: id, Seq: i + 1, Kind: KindRun, Spec: spec})
	}
	two = append(two,
		journalRecord{Type: "finish", Time: at.Add(2 * time.Second), Job: "j000001", Outcome: StateDone,
			Result: &sim.Result{IPC: []float64{2.5}}},
		journalRecord{Type: "finish", Time: at.Add(3 * time.Second), Job: "j000002", Outcome: StateFailed, Error: "boom"})
	// The old form: a start between every submit and finish, and one
	// for j000003, which the crash took mid-run.
	var three []journalRecord
	for _, r := range two {
		if r.Type == "finish" {
			three = append(three, journalRecord{Type: "start", Time: at.Add(time.Second), Job: r.Job})
		}
		three = append(three, r)
	}
	three = append(three, journalRecord{Type: "start", Time: at.Add(time.Second), Job: "j000003"})

	replay := func(recs []journalRecord) (jobs []*jobHistory, compacted []byte) {
		t.Helper()
		dir := t.TempDir()
		j, _, err := openJournal(dir, discard())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := j.append(r); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		j2, jobs, err := openJournal(dir, discard())
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if d := j2.damaged.Load(); d != 0 {
			t.Fatalf("%d-record journal replayed with %d damaged frames", len(recs), d)
		}
		compacted, err = os.ReadFile(filepath.Join(dir, segName(2)))
		if err != nil {
			t.Fatal(err)
		}
		return jobs, compacted
	}
	oldJobs, oldSeg := replay(three)
	newJobs, newSeg := replay(two)
	if len(oldJobs) != 3 || !reflect.DeepEqual(oldJobs, newJobs) {
		t.Fatalf("triples replayed to %d jobs, the two-record form to %d; want the same 3", len(oldJobs), len(newJobs))
	}
	if oldJobs[2].finish != nil || oldJobs[0].finish == nil || oldJobs[1].finish.Error != "boom" {
		t.Fatalf("replayed histories = %+v %+v %+v", oldJobs[0], oldJobs[1], oldJobs[2])
	}
	if !bytes.Equal(oldSeg, newSeg) {
		t.Fatal("compacted segments differ between the three-record and two-record forms")
	}
}

// TestJournalTornTailRecovers: a crash mid-append leaves a torn frame
// at the tail; replay recovers every record before it (the WAL's
// prefix-durability contract) and counts the damage.
func TestJournalTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	spec := &RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}}}
	for i := 1; i <= 3; i++ {
		id := "j00000" + strconv.Itoa(i)
		if err := j.append(journalRecord{Type: "submit", Time: time.Now(), Job: id, Seq: i, Kind: KindRun, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Tear the tail: append half a frame header, as a crash mid-write
	// would.
	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x99, 0x00, 0x00})
	f.Close()

	j2, replayed, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != 3 {
		t.Fatalf("replayed %d jobs, want the 3 before the tear", len(replayed))
	}
	if d := j2.damaged.Load(); d != 1 {
		t.Fatalf("damaged frames = %d, want 1", d)
	}
}

// TestJournalBitFlipStopsReplayAtDamage: a flipped bit inside a frame
// fails its CRC; records before it replay, records after are discarded.
func TestJournalBitFlipStopsReplayAtDamage(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	spec := &RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}}}
	var sizes []int64
	for i := 1; i <= 3; i++ {
		id := "j00000" + strconv.Itoa(i)
		if err := j.append(journalRecord{Type: "submit", Time: time.Now(), Job: id, Seq: i, Kind: KindRun, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, j.size)
	}
	j.Close()

	// Flip one payload bit inside the second frame.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	const recordHeader = 8 // u32 length | u32 CRC-32C
	data[sizes[0]+recordHeader+4] ^= 0x08
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != 1 || replayed[0].submit.Job != "j000001" {
		t.Fatalf("replayed %v, want only the pre-damage job", replayed)
	}
	if d := j2.damaged.Load(); d != 1 {
		t.Fatalf("damaged frames = %d, want 1", d)
	}
}

// TestJournalFsyncFailureKeepsAcknowledgedRecords: a failed fsync
// leaves the frame's bytes in the segment without j.size covering them.
// The journal must abandon that segment — otherwise the next torn
// write's Truncate(j.size) cuts into a record acknowledged after the
// failure. Every append that returned nil must replay.
func TestJournalFsyncFailureKeepsAcknowledgedRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chaos.Enable(nil) })
	arm := func(r chaos.Rule) {
		in := chaos.New(1)
		in.Add(r)
		chaos.Enable(in)
	}
	spec := &RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}}}
	var acked []string
	submit := func(i int) error {
		id := "j00000" + strconv.Itoa(i)
		err := j.append(journalRecord{Type: "submit", Time: time.Now(), Job: id, Seq: i, Kind: KindRun, Spec: spec})
		if err == nil {
			acked = append(acked, id)
		}
		return err
	}
	if err := submit(1); err != nil {
		t.Fatal(err)
	}
	arm(chaos.Rule{Point: "journal.fsync", Kind: chaos.KindErr})
	if err := submit(2); err == nil {
		t.Fatal("append acknowledged a record whose fsync failed")
	}
	chaos.Enable(nil)
	if err := submit(3); err != nil {
		t.Fatal(err)
	}
	arm(chaos.Rule{Point: "journal.write", Kind: chaos.KindShort})
	if err := submit(4); err == nil {
		t.Fatal("append acknowledged a torn write")
	}
	chaos.Enable(nil)
	if err := submit(5); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, replayed, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := make(map[string]bool)
	for _, r := range replayed {
		got[r.submit.Job] = true
	}
	for _, id := range acked {
		if !got[id] {
			t.Errorf("acknowledged record %s lost (replayed %v)", id, got)
		}
	}
	if len(acked) != 3 || j2.damaged.Load() != 0 {
		t.Fatalf("acked %v, damaged frames %d; want 3 acknowledged and a clean replay", acked, j2.damaged.Load())
	}
}

// parentResultJSON is what the pre-internal/store encoder marshalled
// for sim.Result{Cores: 1, Instructions: 20000, IPC: [1.25]}.
const parentResultJSON = `{"Cores":1,"Instructions":20000,"CyclesPerCore":null,"IPC":[1.25],"CoreStats":null,"L1I":null,"L1D":null,"L2":null,` +
	`"LLC":{"Access":[0,0,0,0,0],"Hit":[0,0,0,0,0],"Miss":[0,0,0,0,0],"MSHRMerges":0,"LatePrefetch":0,"PrefetchIssued":0,` +
	`"PrefetchDropPQFull":0,"PrefetchMSHRStall":0,"PrefetchDropUnmapped":0,"PrefetchFills":0,"PrefetchUseful":0,"UselessEvicted":0,` +
	`"IssuedByClass":[0,0,0,0,0],"FillsByClass":[0,0,0,0,0],"UsefulByClass":[0,0,0,0,0],"Writebacks":0,"DemandMissLatency":0,"DemandMissSamples":0},` +
	`"DRAM":{"Reads":0,"Writes":0,"RowHits":0,"RowMisses":0,"RowConflicts":0,"BusBusyCycles":0,"Cycles":0,"ReadQueueFullRejects":0,"WriteQueueFullRejects":0},` +
	`"IPCPL1":null,"IPCPL2":null}`

// TestJournalReadsParentLayout is the format-compatibility proof for
// the journal dir: a segment laid down byte for byte as the
// pre-internal/store daemon appended it — length, CRC and payload of
// each record spelled out here, not produced by today's encoder — is
// replayed, and the finished job in it is re-served with its result.
func TestJournalReadsParentLayout(t *testing.T) {
	dir := t.TempDir()
	seg := "\xc3\x00\x00\x00\x03\xad\xfd\x85" +
		`{"type":"submit","time":"2026-01-02T03:04:05Z","job":"j000001","seq":1,"kind":"run",` +
		`"spec":{"workloads":["bwaves-98"],"l1d":"ipcp","config_key":"compat"},"request_id":"req-1","revision":"parent"}` +
		">\x00\x00\x00\x1c@?\xc4" +
		`{"type":"start","time":"2026-01-02T03:04:06Z","job":"j000001"}` +
		"\x03\x03\x00\x00\xdb\xfbG\xcc" +
		`{"type":"finish","time":"2026-01-02T03:04:07Z","job":"j000001","outcome":"done","result":` + parentResultJSON + `}`
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), []byte(seg), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{JournalDir: dir})
	resp, body := s.get(t, "/v1/runs/j000001")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET replayed job = %d (%s)", resp.StatusCode, body)
	}
	var got jobView
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != StateDone || got.Result == nil || got.Result.Instructions != 20000 || got.Result.IPC[0] != 1.25 ||
		got.RequestID != "req-1" || got.Spec == nil || got.Spec.L1D != "ipcp" {
		t.Fatalf("replayed job = %+v", got)
	}
	// The record's "config_key" is ignored, not refused: the job's
	// identity is its content, so the same run asked for today (no such
	// field) is this very job.
	again := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp"}}, http.StatusOK)
	if again.ID != "j000001" || !again.Coalesced {
		t.Fatalf("same content after replay = %+v, want coalesced onto j000001", again)
	}
	if m := s.Metrics(); m.Journal.ReplayedJobs != 1 || m.Journal.DamagedFrames != 0 {
		t.Fatalf("journal metrics = %+v", m.Journal)
	}
}

// TestServerReplayServesFinishedJob: a finished job survives a restart
// with its original ID and result, and later identical submissions
// coalesce onto the replayed job.
func TestServerReplayServesFinishedJob(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{JournalDir: dir})
	req := RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp", Seed: 9007}}
	v := s1.submitRun(t, req, http.StatusAccepted)
	job := s1.await(t, v.ID, 10*time.Second)
	if job.Status != StateDone {
		t.Fatalf("job = %+v", job)
	}
	wantIPC := job.Result.IPC[0]
	s1.ts.Close()
	s1.Close()

	s2 := newTestServer(t, Options{JournalDir: dir})
	resp, body := s2.get(t, "/v1/runs/"+v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET replayed job = %d (%s)", resp.StatusCode, body)
	}
	var got jobView
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != StateDone || got.Result == nil || got.Result.IPC[0] != wantIPC {
		t.Fatalf("replayed job = %+v, want done with IPC %v", got, wantIPC)
	}
	if got.RequestID == "" || got.Spec == nil || got.Spec.Seed != 9007 {
		t.Fatalf("replayed identity = %+v", got)
	}
	if m := s2.Metrics(); !m.Journal.Enabled || m.Journal.ReplayedJobs != 1 {
		t.Fatalf("journal metrics = %+v", m.Journal)
	}

	// Identical submission coalesces onto the replayed job: no second
	// execution for work already done before the crash.
	again := s2.submitRun(t, req, http.StatusOK)
	if !again.Coalesced || again.ID != v.ID {
		t.Fatalf("post-replay resubmission = %+v, want coalesced onto %s", again, v.ID)
	}
	if got := s2.Session().Executed(); got != 0 {
		t.Fatalf("replayed result re-executed %d times", got)
	}
}

// TestServerReplayReenqueuesUnfinished: a journaled job with no finish
// record (accepted, maybe started, then the process died) is re-run on
// startup and completes under its original ID. New admissions continue
// the ID sequence past the replayed ones.
func TestServerReplayReenqueuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	spec := &RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, L1D: "ipcp", Seed: 9008}}
	if err := j.append(journalRecord{
		Type: "submit", Time: time.Now(), Job: "j000007", Seq: 7,
		Kind: KindRun, Spec: spec, RequestID: "r-lost",
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: "start", Time: time.Now(), Job: "j000007"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s := newTestServer(t, Options{JournalDir: dir})
	job := s.await(t, "j000007", 10*time.Second)
	if job.Status != StateDone || job.Result == nil {
		t.Fatalf("replayed unfinished job = %+v", job)
	}
	if job.RequestID != "r-lost" {
		t.Fatalf("request id lost across replay: %+v", job)
	}
	// The replayed job went through the full lifecycle again, with the
	// restart visible in its event stream.
	kinds := map[string]bool{}
	for _, e := range eventKinds(t, s, "j000007") {
		kinds[e] = true
	}
	if !kinds["replayed"] || !kinds["started"] || !kinds["done"] {
		t.Fatalf("replayed job events = %v", kinds)
	}
	// New submissions pick up the sequence after the replayed maximum.
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: 9009}}, http.StatusAccepted)
	if v.ID != "j000008" {
		t.Fatalf("post-replay id = %s, want j000008", v.ID)
	}
}

func eventKinds(t *testing.T, s *testServer, id string) []string {
	t.Helper()
	j, ok := s.lookup(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	events, _, _ := j.eventsSince(0)
	kinds := make([]string, 0, len(events))
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	return kinds
}

// TestJournalAppendFailureDegradesGracefully: a dead journal disk costs
// crash-durability, never availability — submissions still serve, the
// failure is counted.
func TestJournalAppendFailureDegradesGracefully(t *testing.T) {
	in := chaos.New(1)
	in.Add(chaos.Rule{Point: "journal.append", Kind: chaos.KindErr})
	chaos.Enable(in)
	t.Cleanup(func() { chaos.Enable(nil) })

	s := newTestServer(t, Options{JournalDir: t.TempDir()})
	v := s.submitRun(t, RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: 9010}}, http.StatusAccepted)
	job := s.await(t, v.ID, 10*time.Second)
	if job.Status != StateDone {
		t.Fatalf("job under journal failure = %+v", job)
	}
	if m := s.Metrics(); m.Journal.AppendErrors == 0 {
		t.Fatalf("append errors not surfaced: %+v", m.Journal)
	}
}

// TestFinishWaitsForTheCheckpointOnlyWhenJournaled parks job 1's
// checkpoint write at its chaos point on a one-worker server. A
// journaling worker must not write job 1's finish record before that
// checkpoint lands, so job 2 waits in the queue; a worker with no
// journal has nothing to order and runs job 2 while the write is parked.
func TestFinishWaitsForTheCheckpointOnlyWhenJournaled(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run("journaled="+strconv.FormatBool(journaled), func(t *testing.T) {
			held, letGo := make(chan struct{}), make(chan struct{})
			var once, release sync.Once
			in := chaos.New(1)
			in.Add(chaos.Rule{Point: "checkpoint.save", Kind: chaos.KindCrash})
			// The first "crash" parks the writer in front of job 1's file;
			// later saves pass.
			in.SetCrashFunc(func(string) { once.Do(func() { close(held); <-letGo }) })
			chaos.Enable(in)
			t.Cleanup(func() { chaos.Enable(nil) })

			opts := Options{Workers: 1, CacheDir: t.TempDir()}
			if journaled {
				opts.JournalDir = t.TempDir()
			}
			s := newTestServer(t, opts)
			letGoNow := func() { release.Do(func() { close(letGo) }) }
			t.Cleanup(letGoNow) // before Close, whose flush would wait on the parked write

			run := func(seed int64) string {
				req := RunRequest{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}, Seed: seed}}
				return s.submitRun(t, req, http.StatusAccepted).ID
			}
			s.await(t, run(9101), 10*time.Second)
			select {
			case <-held:
			case <-time.After(30 * time.Second):
				t.Fatal("job 1's checkpoint write never reached its chaos point")
			}
			second := run(9102)
			if !journaled {
				if v := s.await(t, second, 10*time.Second); v.Status != StateDone {
					t.Fatalf("job 2 = %+v", v)
				}
				if got := s.Session().Stats().PendingSaves; got != 2 {
					t.Errorf("pending saves with job 1's write parked = %d, want 2 (job 1's and job 2's)", got)
				}
				return
			}
			time.Sleep(100 * time.Millisecond)
			if _, body := s.get(t, "/v1/runs/"+second); !bytes.Contains(body, []byte(`"status": "queued"`)) {
				t.Fatalf("job 2 left the queue while job 1's checkpoint was parked: %s", body)
			}
			letGoNow()
			if v := s.await(t, second, 10*time.Second); v.Status != StateDone {
				t.Fatalf("job 2 = %+v", v)
			}
		})
	}
}
