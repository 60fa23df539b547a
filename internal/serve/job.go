package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
)

// JobKind distinguishes the three job shapes ipcpd serves.
type JobKind string

const (
	// KindRun is one simulation described by a RunSpec.
	KindRun JobKind = "run"
	// KindExperiments is a batch of named paper experiments.
	KindExperiments JobKind = "experiments"
	// KindSweep is a parameter grid run on a Fleet (see sweep.go).
	KindSweep JobKind = "sweep"
)

// JobState is a job's lifecycle position. Transitions are strictly
// queued → running → done|failed|stalled; a job never leaves a
// terminal state. (A journal replay may move a crashed daemon's
// running jobs back to queued — in the next process life.)
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// StateStalled is the watchdog's verdict: the job's simulation
	// stopped retiring instructions for longer than the stall timeout
	// and was cancelled to reclaim its worker slot.
	StateStalled JobState = "stalled"
)

// terminal reports whether a state is final.
func (st JobState) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateStalled
}

// JobEvent is one line of a job's progress stream, delivered as JSONL
// on GET /v1/runs/{id}/events (and /v1/sweeps/{id}/events).
type JobEvent struct {
	Seq    int       `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Msg    string    `json:"msg,omitempty"`
	*Tally           // sweep jobs: the aggregation after this event
}

// Job is one unit of admitted work. The immutable identity fields are
// set before the job is published; everything below mu is the mutable
// lifecycle, observed concurrently by workers, pollers and streamers.
type Job struct {
	ID         string
	Kind       JobKind
	Spec       *RunRequest   // KindRun: the run, as submitted and as echoed in views
	ExpIDs     []string      // KindExperiments
	Sweep      *SweepRequest // KindSweep: the grid as submitted
	Timeout    time.Duration // 0 = no per-job deadline
	key        string        // coalescing key (KindRun only)
	RequestID  string        // X-Request-ID of the submitting request
	Revision   string        // daemon VCS revision, stamped at admission
	parentSpan uint64        // submitting request's span, parents queue.wait
	submitted  time.Time     // set once in queued, before publication
	groups     [][]*Point    // KindSweep: points by warmup identity (see Groups)

	mu         sync.Mutex
	state      JobState
	err        error
	result     *sim.Result
	report     *reportView // KindExperiments, once finished (or replayed from the journal)
	body       []byte      // the terminal view's GET body, once rendered (see render)
	started    time.Time
	finished   time.Time
	events     []JobEvent
	points     []*Point      // KindSweep, in index order
	changed    chan struct{} // closed and replaced on every mutation
	progress   telemetry.Progress
	progressAt time.Time

	// Watchdog state: cancel tears down the running job's context;
	// stalled marks the watchdog's verdict before the cancellation
	// surfaces; lastMove is the last time the simulation demonstrably
	// advanced (started, or a progress report whose counters moved).
	cancel   func()
	stalled  bool
	lastMove time.Time
}

func newJob(kind JobKind) *Job {
	j := &Job{Kind: kind}
	j.queued(time.Now())
	return j
}

// queued starts a new (or journal-rebuilt) job's lifecycle at its
// submission time.
func (j *Job) queued(at time.Time) {
	j.state, j.submitted, j.changed = StateQueued, at, make(chan struct{})
	j.eventLocked(at, "queued", "")
}

// eventLocked appends one event, stamped with a sweep's aggregation,
// and wakes every waiter; callers hold j.mu (or own the unpublished job).
func (j *Job) eventLocked(at time.Time, kind, msg string) {
	ev := JobEvent{Seq: len(j.events), Time: at, Kind: kind, Msg: msg}
	if j.Kind == KindSweep {
		t := j.tallyLocked()
		ev.Tally = &t
	}
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// Event appends one progress event and wakes streamers.
func (j *Job) Event(kind, msg string) {
	j.mu.Lock()
	j.eventLocked(time.Now(), kind, msg)
	j.mu.Unlock()
}

// begin marks the job running; cancel lets the watchdog tear it down.
func (j *Job) begin(cancel func()) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.lastMove = j.started
	j.cancel = cancel
	j.eventLocked(j.started, "started", "")
	j.mu.Unlock()
}

// finish resolves the job into its terminal state. A watchdog-marked
// job terminates as stalled, with errStalled, whatever error the
// cancellation surfaced as.
func (j *Job) finish(res *sim.Result, rep *experiments.Report, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	j.state = StateDone
	switch {
	case j.stalled:
		j.state, err = StateStalled, errStalled
	case err != nil:
		j.state = StateFailed
	}
	j.result, j.err = res, err
	if rep != nil {
		j.report = &reportView{Interrupted: rep.Interrupted, Markdown: rep.Markdown()}
		for _, r := range rep.Failed() {
			j.report.Failed = append(j.report.Failed, failedView{ID: r.ID, Error: fmt.Sprint(r.Err)})
		}
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	j.eventLocked(j.finished, string(j.state), msg)
	j.cancel = nil
	j.mu.Unlock()
}

// markStalled records the watchdog's verdict and cancels the job's
// context. Returns false if the job is not running (already finished,
// or already marked).
func (j *Job) markStalled() bool {
	j.mu.Lock()
	if j.state != StateRunning || j.stalled {
		j.mu.Unlock()
		return false
	}
	j.stalled = true
	cancel := j.cancel
	j.eventLocked(time.Now(), "stall-detected", "no simulation progress within the stall timeout; cancelling")
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// Result returns the job's terminal result (nil otherwise).
func (j *Job) Result() *sim.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// stalledFor returns how long the running job has gone without
// demonstrable progress (zero for non-running jobs, and for sweeps:
// their simulations are judged by the workers' own watchdogs).
func (j *Job) stalledFor(now time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.stalled || j.Kind == KindSweep {
		return 0
	}
	return now.Sub(j.lastMove)
}

// setProgress records the latest simulation progress report. It is the
// job's telemetry.ProgressFunc: called from the sim loop's existing
// cancellation-check cadence, so a mutex here is off the hot path.
// Streamers poll on a ticker instead of being woken per report.
//
// lastMove advances only when the report shows actual movement
// (retired-instruction or cycle counters changed, or the phase
// flipped): a wedged simulation that keeps reporting the same numbers
// still reads as stalled to the watchdog.
func (j *Job) setProgress(p telemetry.Progress) {
	j.mu.Lock()
	now := time.Now()
	if p.Phase != j.progress.Phase || p.Retired != j.progress.Retired || p.Cycle != j.progress.Cycle {
		j.lastMove = now
	}
	j.progress = p
	j.progressAt = now
	j.mu.Unlock()
}

// Progress returns the latest report and whether one has arrived yet.
func (j *Job) Progress() (telemetry.Progress, time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress, j.progressAt, !j.progressAt.IsZero()
}

// Err returns the job's terminal error (nil while non-terminal or on
// success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// eventsSince returns a copy of the events from seq onward, the channel
// that will be closed on the next mutation, and whether the job is
// terminal — everything a streamer needs for one follow iteration.
func (j *Job) eventsSince(seq int) (events []JobEvent, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < len(j.events) {
		events = append(events, j.events[seq:]...)
	}
	return events, j.changed, j.state.terminal()
}

// jobView is the JSON shape of GET /v1/runs/{id}.
type jobView struct {
	ID        string      `json:"id"`
	Kind      JobKind     `json:"kind"`
	Status    JobState    `json:"status"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	ElapsedS  float64     `json:"elapsed_s,omitempty"`
	Error     string      `json:"error,omitempty"`
	Result    *sim.Result `json:"result,omitempty"`
	Report    *reportView `json:"report,omitempty"`
	Spec      *RunRequest `json:"spec,omitempty"`
	ExpIDs    []string    `json:"experiment_ids,omitempty"`
	RequestID string      `json:"request_id,omitempty"`
	Revision  string      `json:"revision,omitempty"`
	*sweepView
}

// reportView is the JSON shape of a completed experiments job.
type reportView struct {
	Interrupted bool         `json:"interrupted"`
	Markdown    string       `json:"markdown"`
	Failed      []failedView `json:"failed,omitempty"`
}

type failedView struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// render is the job's GET body. A terminal view never changes, so the
// first render of a terminal job encodes it and every later one serves
// those bytes; a live view is encoded per call.
func (j *Job) render() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.body != nil {
		return j.body
	}
	body := encodeJSON(j.viewLocked())
	if j.state.terminal() {
		j.body = body
	}
	return body
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() jobView {
	v := jobView{
		ID:        j.ID,
		Kind:      j.Kind,
		Status:    j.state,
		Submitted: j.submitted,
		Result:    j.result,
		Report:    j.report,
		ExpIDs:    j.ExpIDs,
		Spec:      j.Spec,
		RequestID: j.RequestID,
		Revision:  j.Revision,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		// A job replayed from the journal finished in an earlier life;
		// when it started there is not recorded.
		if !j.started.IsZero() {
			v.ElapsedS = j.finished.Sub(j.started).Seconds()
		}
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.Kind == KindSweep {
		v.sweepView = &sweepView{Tally: j.tallyLocked(), Groups: len(j.groups), Points: make([]Point, len(j.points))}
		for i, pt := range j.points {
			v.Points[i] = *pt
		}
	}
	return v
}

// newReplayedJob rebuilds a Job from its journal history. Finished
// jobs come back terminal with their original result; unfinished ones
// come back queued (the caller re-enqueues them) — their start in the
// previous life, if any, died with the process. An unfinished sweep
// comes back with every point pending: its grid is expanded again, and
// the points that finished before the crash come back to it as
// coalesced, memo, disk or blob hits on the workers.
func newReplayedJob(h *jobHistory) *Job {
	sub, fin := &h.submit, h.finish
	j := &Job{
		ID:        sub.Job,
		Kind:      sub.Kind,
		Spec:      sub.Spec,
		ExpIDs:    sub.ExpIDs,
		Sweep:     sub.Sweep,
		Timeout:   time.Duration(sub.TimeoutMS) * time.Millisecond,
		RequestID: sub.RequestID,
		Revision:  sub.Revision,
	}
	if sub.Spec != nil {
		j.key = sub.Spec.Key()
	}
	var err error
	if sub.Kind == KindSweep {
		var pts []*Point
		if fin != nil {
			for i := range fin.Points {
				pts = append(pts, &fin.Points[i])
			}
		} else if specs, xerr := sub.Sweep.expand(); xerr == nil {
			pts = newPoints(specs)
		} else {
			err = fmt.Errorf("replayed sweep no longer expands: %w", xerr)
		}
		j.setPoints(pts)
	}
	j.queued(sub.Time)
	switch {
	case fin != nil:
		j.state, j.finished, j.result, j.report = fin.Outcome, fin.Time, fin.Result, fin.Report
		j.stalled = fin.Outcome == StateStalled
		if fin.Error != "" {
			j.err = errors.New(fin.Error)
		}
		j.eventLocked(fin.Time, string(fin.Outcome), fin.Error)
	case err != nil:
		j.state, j.finished, j.err = StateFailed, time.Now(), err
		j.eventLocked(j.finished, string(StateFailed), err.Error())
	default:
		// Unfinished: back to the queue with a visible marker that the
		// daemon restarted underneath the job.
		j.eventLocked(time.Now(), "replayed", "daemon restarted; job re-enqueued from the journal")
	}
	return j
}
