package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipcp/internal/chaos"
	"ipcp/internal/sim"
	"ipcp/internal/store"
)

// The job journal is ipcpd's write-ahead log: every job's submit is
// appended (fsynced) to a segment file before the daemon acknowledges
// it, and its finish after the result is published and checkpointed, so
// a kill -9 at any instant loses zero acknowledged work. There is no record of a
// job starting: replay re-runs an unfinished job whether or not it had
// started, so that record bought nothing and put a queued fsync in
// front of the first simulated cycle. On startup the journal is
// replayed: finished jobs are re-registered with their original IDs and
// results (a client polling across the crash sees its job complete),
// unfinished jobs are re-enqueued with their original IDs (they run
// again — their results were never delivered), and the replayed state
// is compacted into a fresh segment written atomically
// (store.WriteFile).
//
// Each record is a JSON payload in store's length+CRC record frame.
// Replay reads frames until EOF or the first damaged frame (torn tail
// from a crash mid-append, or a bit flip): everything before the
// damage is recovered, everything after is discarded with a warning —
// a WAL's prefix-durability contract. Records are merged per job ID,
// so replay tolerates any interleaving of submit/finish appends — a
// worker can finish a memoized job before the submit record's fsync
// returns. A record of any other type is skipped, not damage: segments
// written before the "start" record was dropped still replay.

// journalRecord is one WAL entry. Type decides which fields are live.
type journalRecord struct {
	Type string    `json:"type"` // "submit" | "finish"
	Time time.Time `json:"time"`
	Job  string    `json:"job"`

	// submit fields: everything needed to rebuild the job's identity.
	Seq       int           `json:"seq,omitempty"`
	Kind      JobKind       `json:"kind,omitempty"`
	Spec      *RunRequest   `json:"spec,omitempty"`
	ExpIDs    []string      `json:"exp_ids,omitempty"`
	Sweep     *SweepRequest `json:"sweep,omitempty"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
	RequestID string        `json:"request_id,omitempty"`
	Revision  string        `json:"revision,omitempty"`

	// finish fields.
	Outcome JobState    `json:"outcome,omitempty"` // done | failed | stalled
	Error   string      `json:"error,omitempty"`
	Result  *sim.Result `json:"result,omitempty"`
	Report  *reportView `json:"report,omitempty"`
	Points  []Point     `json:"points,omitempty"` // a sweep's every point
}

// walMaxSegment rotates the active segment when it grows past this.
const walMaxSegment = 8 << 20

// journal is the WAL: one active append segment plus replay/compaction.
type journal struct {
	dir string
	log *slog.Logger

	mu     sync.Mutex
	f      *os.File
	segSeq int   // suffix of the active segment
	size   int64 // bytes appended to the active segment

	appended   atomic.Uint64 // records appended this process life
	appendErrs atomic.Uint64 // appends that failed (journal degraded)
	damaged    atomic.Uint64 // damaged frames discarded during replay
	replayed   atomic.Uint64 // jobs restored by replay
}

func segName(seq int) string { return fmt.Sprintf("wal-%08d.seg", seq) }

// openJournal opens (creating if needed) the journal directory,
// replays every segment, compacts the live records into a single fresh
// segment, and opens a new active segment for this life's appends.
// The returned records are the replayed history, merged per job.
func openJournal(dir string, log *slog.Logger) (*journal, []*jobHistory, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: creating journal dir: %w", err)
	}
	j := &journal{dir: dir, log: log, segSeq: 1}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(segs)
	var recs []journalRecord
	maxSeg := 0
	for _, seg := range segs {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%d.seg", &n); err == nil && n > maxSeg {
			maxSeg = n
		}
		segRecs, damaged := j.readSegment(seg)
		recs = append(recs, segRecs...)
		if damaged > 0 {
			j.damaged.Add(uint64(damaged))
			j.log.Warn("journal segment damaged; trailing records discarded",
				"segment", seg, "recovered", len(segRecs), "damaged_frames", damaged)
		}
	}
	jobs := mergeReplay(recs, log)
	j.replayed.Store(uint64(len(jobs)))

	// Compact: canonical submit(+finish) records for every replayed
	// job, written tmp + fsync + rename, then the old segments go.
	// A crash mid-compaction leaves the old segments intact (the
	// rename is the commit point); a crash after leaves only the
	// compacted segment. Either way replay sees consistent state.
	if len(segs) > 0 {
		compacted := filepath.Join(dir, segName(maxSeg+1))
		if err := writeCompacted(compacted, jobs); err != nil {
			return nil, nil, fmt.Errorf("serve: compacting journal: %w", err)
		}
		for _, seg := range segs {
			if err := os.Remove(seg); err != nil {
				j.log.Warn("journal: removing pre-compaction segment", "segment", seg, "err", err)
			}
		}
		j.segSeq = maxSeg + 2
	}
	if err := j.openActive(); err != nil {
		return nil, nil, err
	}
	return j, jobs, nil
}

func (j *journal) openActive() error {
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.segSeq)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: opening journal segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	j.f, j.size = f, st.Size()
	return nil
}

// append frames, writes and fsyncs one record. An error degrades the
// journal (counted, logged by the caller) but never the serving path.
func (j *journal) append(rec journalRecord) error {
	if err := chaos.At("journal.append"); err != nil {
		j.appendErrs.Add(1)
		return err
	}
	payload, err := json.Marshal(rec)
	if err == nil && len(payload) > store.MaxRecord {
		// Replay would read the frame as damage and drop every record
		// after it (a sweep's finish can grow this large).
		err = fmt.Errorf("serve: %d-byte journal record exceeds the frame cap", len(payload))
	}
	if err != nil {
		j.appendErrs.Add(1)
		return err
	}
	frame := store.AppendRecord(nil, payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("serve: journal closed")
	}
	if _, err := chaos.Writer("journal.write", j.f).Write(frame); err != nil {
		// A torn frame would poison every later append in this
		// segment; truncate it away, or abandon the segment if even
		// that fails (the next segment starts clean).
		if terr := j.f.Truncate(j.size); terr != nil {
			j.rotateLocked()
		}
		j.appendErrs.Add(1)
		return err
	}
	err = chaos.At("journal.fsync")
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		// The frame's bytes are in the file but j.size does not cover
		// them: abandon the segment, or a later torn write's
		// Truncate(j.size) would cut into records acknowledged since.
		j.rotateLocked()
		j.appendErrs.Add(1)
		return err
	}
	j.size += int64(len(frame))
	j.appended.Add(1)
	if j.size >= walMaxSegment {
		j.rotateLocked()
	}
	return nil
}

// rotateLocked moves appends to a fresh segment; j.mu held.
func (j *journal) rotateLocked() {
	if j.f != nil {
		j.f.Close()
	}
	j.segSeq++
	if err := j.openActive(); err != nil {
		j.log.Error("journal rotation failed; journaling disabled", "err", err)
		j.f = nil
	}
}

// Close flushes and closes the active segment.
func (j *journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Sync()
		j.f.Close()
		j.f = nil
	}
}

// readSegment decodes frames until EOF or the first damaged frame.
func (j *journal) readSegment(path string) (recs []journalRecord, damaged int) {
	data, err := os.ReadFile(path)
	if err != nil {
		j.log.Warn("journal: unreadable segment", "segment", path, "err", err)
		return nil, 1
	}
	for len(data) > 0 {
		payload, rest, err := store.NextRecord(data)
		if err != nil {
			return recs, 1 // torn tail, corrupt length or bit flip
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, 1 // CRC-valid but unparseable: treat as damage
		}
		recs = append(recs, rec)
		data = rest
	}
	return recs, 0
}

// jobHistory is one job's merged journal history: its submit and
// finish records as journaled — compaction writes them back verbatim.
type jobHistory struct {
	submit journalRecord
	finish *journalRecord // nil while unfinished
}

// mergeReplay folds records into per-job state, ordered by submit
// sequence; a later record of a type replaces an earlier one. Records
// for jobs whose submit record was lost to damage cannot be acted on
// (no identity to rebuild) and are dropped with a warning.
func mergeReplay(recs []journalRecord, log *slog.Logger) []*jobHistory {
	byID := make(map[string]*jobHistory)
	for i := range recs {
		rec := &recs[i]
		if rec.Job == "" {
			continue
		}
		r, ok := byID[rec.Job]
		if !ok {
			r = &jobHistory{}
			byID[rec.Job] = r
		}
		switch rec.Type {
		case "submit":
			r.submit = *rec
		case "finish":
			r.finish = rec
		}
	}
	out := make([]*jobHistory, 0, len(byID))
	for id, r := range byID {
		if r.submit.Time.IsZero() || (r.submit.Kind == KindRun && r.submit.Spec == nil) ||
			(r.submit.Kind == KindSweep && r.submit.Sweep == nil) {
			log.Warn("journal: dropping job with incomplete history", "job_id", id)
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].submit.Seq < out[k].submit.Seq })
	return out
}

// writeCompacted writes the canonical replay of jobs as one segment,
// atomically: a crash never leaves a half-compacted segment in place.
// Its chaos points are journal.compact.save/journal.compact.write.
func writeCompacted(path string, jobs []*jobHistory) error {
	var buf []byte
	frame := func(rec journalRecord) error {
		payload, err := json.Marshal(rec)
		if err == nil {
			buf = store.AppendRecord(buf, payload)
		}
		return err
	}
	for _, r := range jobs {
		if err := frame(r.submit); err != nil {
			return err
		}
		if r.finish == nil {
			continue
		}
		if err := frame(*r.finish); err != nil {
			return err
		}
	}
	return store.WriteFile(path, buf, "journal.compact")
}

// submitRecord renders a job's admission for the WAL.
func submitRecord(j *Job, seq int) journalRecord {
	return journalRecord{
		Type: "submit", Time: j.submitted, Job: j.ID, Seq: seq,
		Kind: j.Kind, Spec: j.Spec, ExpIDs: j.ExpIDs, Sweep: j.Sweep,
		TimeoutMS: int64(j.Timeout / time.Millisecond),
		RequestID: j.RequestID, Revision: j.Revision,
	}
}

// appendOrWarn journals one record, downgrading failure to a warning:
// serving keeps working on a dead journal disk, it just loses
// crash-durability (visible via the append-error counter).
func (s *Server) appendOrWarn(rec journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(rec); err != nil {
		s.log.Warn("journal append failed; job not crash-durable",
			"job_id", rec.Job, "type", rec.Type, "err", err)
	}
}
