// Package serve is the ipcpd daemon's core: a long-running HTTP/JSON
// front end over a shared experiments.Session. It turns the session's
// memoization, single-flight dedup, disk checkpointing and
// context-cancellation machinery into a simulation service with
// admission control (bounded queue, 429 + Retry-After on overload),
// request coalescing (N clients asking for the same run share one
// simulation and one job), per-job deadlines, streamed progress, and
// graceful drain on shutdown.
//
// Everything is stdlib net/http; the API surface is small and
// versioned under /v1:
//
// Every request is correlated: an X-Request-ID (client-supplied or
// minted) is echoed on the response, attached to every structured log
// line, carried through context into the session and simulator, and
// stamped on every span the request produces.
//
//	POST /v1/runs               submit one simulation (RunSpec shape)
//	GET  /v1/runs/{id}          job status, result when done
//	GET  /v1/runs/{id}/events   streamed JSONL progress + events
//	GET  /v1/runs/{id}/progress latest simulation progress report
//	GET  /v1/runs/{id}/trace    Chrome trace_event JSON for one job
//	POST /v1/experiments        run named paper experiments
//	GET  /v1/experiments        list experiment ids
//	GET  /v1/buildinfo          binary version/revision/toolchain
//	GET  /healthz               liveness (503 while draining)
//	GET  /metrics               counters (JSON, or Prometheus text via Accept)
//	GET  /debug/trace           Chrome trace_event JSON, daemon-wide
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ipcp/internal/chaos"
	"ipcp/internal/experiments"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Scale is the session's simulation scale (experiments.Quick when
	// zero).
	Scale experiments.Scale
	// CacheDir, when set, checkpoints every finished simulation to disk
	// so results persist across daemon restarts.
	CacheDir string
	// QueueSize bounds the admitted-but-not-started backlog (default
	// 64). A full queue rejects with 429 + Retry-After.
	QueueSize int
	// Workers is the number of concurrent job runners (default
	// NumCPU). The session separately caps concurrent simulations at
	// NumCPU, so extra workers only help jobs that coalesce or hit
	// caches.
	Workers int
	// JobTimeout caps every job's per-request timeout_ms; 0 means
	// requests may run unbounded.
	JobTimeout time.Duration
	// SharedWarmup routes run jobs through the session's shared-warmup
	// scheduler: jobs differing only in prefetcher configuration share
	// one warmup simulation and fork their measure phases from its
	// snapshot. Results use the cache-warm-only methodology (see
	// DESIGN.md §15) and are cached separately from classic runs.
	SharedWarmup bool
	// RemoteBlobs, when set, attaches a shared second-level blob store
	// (the coordinator's /v1/blobs service) behind the disk cache:
	// local checkpoint/snapshot misses fall through to it and local
	// writes are pushed to it, so any worker's result is every
	// worker's disk hit. Requires CacheDir.
	RemoteBlobs experiments.RemoteBlobs
	// JournalDir, when set, write-ahead journals every job's submit and
	// finish to CRC-framed, fsynced segment files. On
	// startup the journal is replayed: finished jobs are re-served
	// with their original IDs and results, unfinished ones are
	// re-enqueued — a kill -9 loses zero acknowledged work.
	JournalDir string
	// StallTimeout arms the hung-job watchdog: a running job whose
	// simulation progress counters stop moving for this long is
	// cancelled, terminates as outcome "stalled", and its worker slot
	// is reclaimed (even if the simulation itself is wedged beyond
	// cancellation). 0 disables the watchdog.
	StallTimeout time.Duration
	// Log receives structured operational logs (admissions, completions,
	// drain) with request_id/job_id/kind/duration attributes. Nil
	// discards.
	Log *slog.Logger
}

// Server owns the session, the job queue and the worker pool. Create
// with New, expose via Handler, stop with Drain (graceful) or Close.
type Server struct {
	opts    Options
	session *experiments.Session
	ctx     context.Context
	cancel  context.CancelFunc
	log     *slog.Logger
	spans   *telemetry.SpanTracer
	build   BuildInfo
	journal *journal // nil when JournalDir is unset

	mu       sync.Mutex
	jobs     map[string]*Job
	byKey    map[string]*Job      // in-flight/completed run jobs by spec key
	queuedDL map[string]time.Time // queued jobs' absolute deadlines (load shedding)
	seq      int
	draining bool
	stats    MetricsSnapshot // the counters the server owns: InFlight and Jobs

	queue chan *Job
	wg    sync.WaitGroup // workers
	bg    sync.WaitGroup // watchdog

	queueWait *telemetry.Histogram // admission → worker pickup
	execution *telemetry.Histogram // worker pickup → finish
	latency   *telemetry.Histogram // admission → finish (end to end)
}

// New builds a Server and starts its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Scale == (experiments.Scale{}) {
		opts.Scale = experiments.Quick
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	session := experiments.NewSessionContext(ctx, opts.Scale)
	// Before SetCacheDir: the disk cache captures the logger it is
	// created with.
	session.SetLogger(opts.Log)
	if opts.CacheDir != "" {
		if err := session.SetCacheDir(opts.CacheDir); err != nil {
			cancel()
			return nil, err
		}
	}
	if opts.RemoteBlobs != nil {
		if opts.CacheDir == "" {
			cancel()
			return nil, fmt.Errorf("serve: RemoteBlobs requires CacheDir")
		}
		if err := session.SetRemoteBlobs(opts.RemoteBlobs); err != nil {
			cancel()
			return nil, err
		}
	}
	s := &Server{
		opts:      opts,
		session:   session,
		ctx:       ctx,
		cancel:    cancel,
		log:       opts.Log,
		spans:     telemetry.NewSpanTracer(telemetry.DefaultSpanCapacity),
		build:     ReadBuildInfo(),
		jobs:      make(map[string]*Job),
		byKey:     make(map[string]*Job),
		queuedDL:  make(map[string]time.Time),
		queueWait: telemetry.NewHistogram(),
		execution: telemetry.NewHistogram(),
		latency:   telemetry.NewHistogram(),
	}
	var replay []*jobHistory
	if opts.JournalDir != "" {
		jr, jobs, err := openJournal(opts.JournalDir, opts.Log)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = jr
		replay = jobs
	}
	// The queue must absorb every replayed unfinished job even when
	// that exceeds QueueSize: the jobs were already acknowledged in a
	// previous life and are never dropped on restart.
	queueCap := opts.QueueSize
	unfinished := 0
	for _, r := range replay {
		if r.finish == nil {
			unfinished++
		}
	}
	if unfinished > queueCap {
		queueCap = unfinished
	}
	s.queue = make(chan *Job, queueCap)
	requeued := 0
	for _, r := range replay {
		if r.submit.Seq > s.seq {
			s.seq = r.submit.Seq
		}
		j := newReplayedJob(r)
		s.jobs[j.ID] = j
		// Done and still-queued runs pin the coalescing key so
		// identical submissions after the restart share them; stalled
		// and failed replays don't (their retry semantics match the
		// live eviction rules). Neither does a spec today's rules
		// refuse: a submission is coalesced before it is validated, so
		// byKey may only hold specs that validate.
		if st := j.State(); j.Kind == KindRun && j.key != "" &&
			(st == StateQueued || st == StateDone) && j.Spec.Validate() == nil {
			s.byKey[j.key] = j
		}
		if !j.State().terminal() {
			requeued++
			s.queue <- j
		}
	}
	if s.journal != nil {
		s.log.Info("journal replayed",
			"dir", opts.JournalDir, "jobs", len(replay), "requeued", requeued,
			"finished", len(replay)-requeued, "damaged_frames", s.journal.damaged.Load())
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.StallTimeout > 0 {
		s.bg.Add(1)
		go s.watchdog()
	}
	return s, nil
}

// watchdog periodically scans running jobs for ones whose simulation
// progress counters have stopped moving and reaps them (cancellation +
// worker-slot reclaim). Exits when the server's context does.
func (s *Server) watchdog() {
	defer s.bg.Done()
	t := time.NewTicker(min(max(s.opts.StallTimeout/4, 10*time.Millisecond), time.Second))
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			s.reapStalled(now)
		}
	}
}

// reapStalled marks every over-deadline running job stalled.
func (s *Server) reapStalled(now time.Time) {
	s.mu.Lock()
	var stale []*Job
	for _, j := range s.jobs {
		if j.stalledFor(now) > s.opts.StallTimeout {
			stale = append(stale, j)
		}
	}
	s.mu.Unlock()
	for _, j := range stale {
		if j.markStalled() {
			s.log.Warn("watchdog: job stalled; cancelling to reclaim its worker",
				"job_id", j.ID, "kind", string(j.Kind), "request_id", j.RequestID,
				"stall_timeout", s.opts.StallTimeout)
		}
	}
}

// Session exposes the underlying experiments session (metrics, tests).
func (s *Server) Session() *experiments.Session { return s.session }

// Spans exposes the daemon-wide span ring (trace endpoints, tests).
func (s *Server) Spans() *telemetry.SpanTracer { return s.spans }

// Build returns the daemon's build identification.
func (s *Server) Build() BuildInfo { return s.build }

// Draining reports whether admission has been closed.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// StartDrain closes admission: new submissions are rejected with 429
// and workers exit once the queue empties. Idempotent.
func (s *Server) StartDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		s.log.Info("draining", "queue_depth", len(s.queue))
	}
	s.mu.Unlock()
}

// AwaitDrain blocks until every queued and in-flight job has finished
// and every result they produced is checkpointed (the session persists
// behind its runs; this is where the daemon waits for it). If ctx
// expires first, in-flight simulations are cancelled (they stop within
// a few thousand cycles; completed sub-runs are checkpointed before
// this returns, when a cache dir is configured) and the context error
// is returned after the workers unwind.
func (s *Server) AwaitDrain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.session.Flush()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Drain is StartDrain + AwaitDrain: the SIGTERM path.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	return s.AwaitDrain(ctx)
}

// Close shuts down immediately: admission off, in-flight work
// cancelled, workers joined.
func (s *Server) Close() {
	s.StartDrain()
	s.cancel()
	s.wg.Wait()
	s.bg.Wait()
	s.session.Flush()
	if s.journal != nil {
		s.journal.Close()
	}
}

// The admission refusals; all map to 429 so clients retry against a
// drained or less-loaded server.
var (
	errQueueFull     = errors.New("job queue full")
	errDraining      = errors.New("server draining")
	errBacklogDoomed = errors.New("queue backlog already past its deadlines; shedding load")
)

// submit admits a job (assigning its ID) or coalesces it onto an
// existing identical run job. An admission is journaled before it is
// acknowledged, so the caller's 202 implies crash-durability.
func (s *Server) submit(j *Job) (*Job, bool, error) {
	s.mu.Lock()
	if exist, err := s.coalesceLocked(j.key); err != nil || exist != nil {
		s.mu.Unlock()
		return exist, exist != nil, err
	}
	// Deadline-aware shedding: if any already-queued job has blown past
	// its own absolute deadline while waiting, the backlog is doomed —
	// new work would only wait behind jobs guaranteed to time out, so
	// refuse it now instead of timing it out later.
	now := time.Now()
	for _, dl := range s.queuedDL {
		if now.After(dl) {
			s.stats.Jobs.Shed++
			s.mu.Unlock()
			return nil, false, errBacklogDoomed
		}
	}
	// Identity must be stamped before the channel send: the send is the
	// happens-before edge to the worker, so a field written after it
	// races with the worker reading the job.
	s.seq++
	j.ID = fmt.Sprintf("j%06d", s.seq)
	j.Revision = s.build.Revision
	select {
	case s.queue <- j:
	default:
		s.seq--
		s.stats.Jobs.Rejected++
		s.mu.Unlock()
		return nil, false, errQueueFull
	}
	s.jobs[j.ID] = j
	if j.Kind == KindRun {
		s.byKey[j.key] = j
	}
	if j.Timeout > 0 {
		s.queuedDL[j.ID] = j.submitted.Add(j.Timeout)
	}
	s.stats.Jobs.Admitted++
	seq := s.seq
	s.log.Info("job admitted",
		"job_id", j.ID, "kind", string(j.Kind), "request_id", j.RequestID,
		"queue_depth", len(s.queue))
	s.mu.Unlock()
	// Journal outside the lock (the append fsyncs) but before the ack.
	// A crash in this window — modeled by the queue.handoff chaos point
	// — loses only a job nobody was ever told about.
	_ = chaos.At("queue.handoff")
	s.appendOrWarn(submitRecord(j, seq))
	return j, false, nil
}

// coalesceLocked is admission's first step: refused while draining,
// else the job already serving key (nil when none). Callers hold s.mu.
// An experiments job's key is "", which byKey never holds.
func (s *Server) coalesceLocked(key string) (*Job, error) {
	if s.draining {
		s.stats.Jobs.Rejected++
		return nil, errDraining
	}
	// HTTP-level coalescing: the identical run is already queued,
	// running or done — share its job. Identical runs reached through
	// *different* entry points (a run job and an experiment job touching
	// the same spec) are coalesced one layer down, by the session's
	// single-flight cache.
	exist := s.byKey[key]
	if exist != nil {
		s.stats.Jobs.Coalesced++
	}
	return exist, nil
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// interrupted reports a cancellation-shaped error (per-job deadline or
// server shutdown) — the kind the session deliberately does not
// memoize, so a retried job re-runs.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errStalled is a reaped job's terminal error when its simulation was
// wedged beyond cancellation and had to be abandoned outright.
var errStalled = errors.New("stalled: no simulation progress within the stall timeout")

// stallGrace is how long a stall-cancelled job gets to unwind cleanly
// (surfacing the session's own cancellation error) before the worker
// abandons the simulation goroutine and reclaims the slot anyway.
const stallGrace = 250 * time.Millisecond

func (s *Server) runJob(j *Job) {
	start := time.Now()
	s.mu.Lock()
	s.stats.InFlight++
	delete(s.queuedDL, j.ID)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.stats.InFlight--
		s.mu.Unlock()
	}()
	wait := start.Sub(j.submitted)
	s.queueWait.Observe(wait.Seconds())
	// The queue wait already happened by the time a worker sees the job,
	// so its span is emitted retroactively, parented to the submitting
	// HTTP request's span to bridge the async boundary.
	s.spans.Emit(telemetry.Span{
		Name:      "queue.wait",
		Parent:    j.parentSpan,
		RequestID: j.RequestID,
		JobID:     j.ID,
		Start:     j.submitted,
		Dur:       wait,
	})

	// Rebuild the request's correlation on the worker's context: the
	// span tracer, request id, job id and parent span flow from here
	// through the session into the simulator's phase spans, and the
	// progress sink routes live simulation progress back onto the job.
	ctx := telemetry.ContextWithSpanTracer(s.ctx, s.spans)
	ctx = telemetry.ContextWithRequestID(ctx, j.RequestID)
	ctx = telemetry.ContextWithJobID(ctx, j.ID)
	ctx = telemetry.ContextWithParentSpan(ctx, j.parentSpan)
	ctx = telemetry.ContextWithProgress(ctx, j.setProgress)
	ctx, jobSpan := telemetry.StartSpan(ctx, "job."+string(j.Kind))

	// Every job context is cancellable so the watchdog can tear the job
	// down; the per-job deadline layers on top.
	var cancel context.CancelFunc
	if j.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	j.begin(cancel)

	// The session call runs in a child goroutine so the worker can
	// abandon a simulation the watchdog's cancellation cannot unwind
	// (wedged outside the cycle loop's cancellation checks): the worker
	// slot is reclaimed either way. The abandoned goroutine parks on
	// the buffered channel send and unwinds whenever the simulation
	// eventually returns.
	type outcome struct {
		res *sim.Result
		rep *experiments.Report
		err error
	}
	outc := make(chan outcome, 1)
	go func() {
		switch j.Kind {
		case KindRun:
			var res *sim.Result
			var err error
			if s.opts.SharedWarmup {
				jobSpan.SetAttr("warmup_shared", "true")
				res, err = s.session.RunSharedContext(ctx, j.Spec.RunSpec)
			} else {
				res, err = s.session.RunContext(ctx, j.Spec.RunSpec)
			}
			outc <- outcome{res: res, err: err}
		case KindExperiments:
			rep, err := experiments.RunIDs(ctx, s.session, j.ExpIDs,
				func(res experiments.ExperimentResult, done bool) {
					switch {
					case !done:
						j.Event("experiment-start", res.ID)
					case res.Err != nil:
						j.Event("experiment-failed", fmt.Sprintf("%s: %v", res.ID, res.Err))
					default:
						j.Event("experiment-done", fmt.Sprintf("%s (%.1fs)", res.ID, res.Elapsed.Seconds()))
					}
				})
			if err == nil && rep.Interrupted {
				err = fmt.Errorf("experiments interrupted: %w", firstNonNil(ctx.Err(), context.Canceled))
			}
			outc <- outcome{rep: rep, err: err}
		}
	}()
	var out outcome
	select {
	case out = <-outc:
	case <-j.abandonCh():
		// Watchdog verdict: the context is already cancelled. Give the
		// cancellation a grace period to unwind cleanly, then abandon
		// the goroutine outright.
		grace := time.NewTimer(stallGrace)
		select {
		case out = <-outc:
		case <-grace.C:
			out = outcome{err: errStalled}
		}
		grace.Stop()
	}
	j.finish(out.res, out.rep, out.err)

	elapsed := time.Since(start)
	s.execution.Observe(elapsed.Seconds())
	s.latency.Observe(time.Since(j.submitted).Seconds())
	st, err := j.State(), j.Err()
	counter := &s.stats.Jobs.Completed // bumped under mu below
	switch st {
	case StateStalled:
		jobSpan.SetAttr("outcome", "stalled")
		if err != nil {
			jobSpan.SetAttr("error", err.Error())
		}
		jobSpan.End()
		counter = &s.stats.Jobs.Stalled
		s.log.Error("job stalled; worker slot reclaimed",
			"job_id", j.ID, "kind", string(j.Kind), "request_id", j.RequestID,
			"queue_wait", wait, "duration", elapsed, "err", err)
	case StateFailed:
		jobSpan.SetAttr("outcome", "failed")
		jobSpan.SetAttr("error", err.Error())
		jobSpan.End()
		counter = &s.stats.Jobs.Failed
		s.log.Error("job failed",
			"job_id", j.ID, "kind", string(j.Kind), "request_id", j.RequestID,
			"queue_wait", wait, "duration", elapsed, "err", err)
	default:
		jobSpan.SetAttr("outcome", "done")
		jobSpan.End()
		s.log.Info("job done",
			"job_id", j.ID, "kind", string(j.Kind), "request_id", j.RequestID,
			"queue_wait", wait, "duration", elapsed)
	}
	// Neither a stalled nor a cancelled/timed-out run is memoized by
	// the session, so don't pin later identical submissions to a dead
	// job.
	s.mu.Lock()
	*counter++
	if j.Kind == KindRun && (st == StateStalled || (err != nil && interrupted(err))) && s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.mu.Unlock()
	// The job is terminal and visible; what follows is off its latency.
	// A journaling worker waits out the session's write-behind queue
	// before it journals the finish, so a finish record implies its
	// checkpoint is on disk: a crash in between re-runs the job as a disk
	// hit instead of leaving a finished job whose result lives only in
	// the journal. Without a journal there is nothing to order, so the
	// worker takes its next job and the checkpoint's fsync overlaps it.
	if s.journal != nil {
		s.session.Flush()
	}
	s.journalFinish(j, st, err)
}

// journalFinish decides which terminal states earn a WAL finish
// record. Shutdown-interrupted jobs deliberately get none — mirroring
// the session's refusal to memoize cancellation, replay re-enqueues
// them. A job's own blown deadline, a stall verdict, and genuine
// failures are final outcomes the next life must re-serve as-is.
func (s *Server) journalFinish(j *Job, st JobState, err error) {
	if s.journal == nil {
		return
	}
	if st == StateFailed && interrupted(err) &&
		!(errors.Is(err, context.DeadlineExceeded) && j.Timeout > 0) {
		return
	}
	rec := journalRecord{Type: "finish", Time: time.Now(), Job: j.ID, Outcome: st}
	if err != nil {
		rec.Error = err.Error()
	}
	if st == StateDone {
		if j.Kind == KindRun {
			rec.Result = j.Result()
		} else {
			rec.Report = j.view().Report
		}
	}
	s.appendOrWarn(rec)
}

func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- HTTP layer ----------------------------------------------------------

// RunRequest is the wire form of POST /v1/runs: the run itself plus a
// per-job timeout. The coordinator's sweep points are this same type,
// so fan-out is a direct re-encode. Unknown fields are ignored, so a body
// (or an old journal record) still carrying a hand-typed identity label
// decodes, and the label no longer splits the cache.
type RunRequest struct {
	experiments.RunSpec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

var errNegativeTimeout = errors.New("timeout_ms must be >= 0")

// Validate is the spec's own validation plus the timeout's.
func (r *RunRequest) Validate() error {
	if r.TimeoutMS < 0 {
		return errNegativeTimeout
	}
	return r.RunSpec.Validate()
}

// experimentsRequest is the wire form of POST /v1/experiments.
type experimentsRequest struct {
	IDs       []string `json:"ids"` // experiment ids, or ["all"]
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// submitView is the JSON shape of a successful submission.
type submitView struct {
	ID        string   `json:"id"`
	Status    JobState `json:"status"`
	Location  string   `json:"location"`
	Coalesced bool     `json:"coalesced,omitempty"`
}

// Handler returns the daemon's HTTP handler, wrapped in the
// observability middleware (request ids, spans, access log).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/runs/{id}/progress", s.handleJobProgress)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("POST /v1/experiments", s.handleSubmitExperiments)
	mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	mux.HandleFunc("GET /v1/buildinfo", s.handleBuildinfo)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	return s.instrument(mux)
}

// WriteJSON answers with v as indented JSON under status code. The
// coordinator's HTTP surface shares it (and WriteError, DecodeRequest,
// WantsPrometheus) so both daemons speak one dialect.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, encodeJSON(v))
}

// encodeJSON renders v the way WriteJSON sends it: indented one space,
// newline-terminated (empty if v does not encode).
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// writeBody answers with an encoded JSON body under status code.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// WriteError answers with {"error": err} under status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// writeAdmissionError maps admission refusals onto 429 + Retry-After.
func writeAdmissionError(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", retryAfter())
	WriteError(w, http.StatusTooManyRequests, err)
}

// retryAfterBase is the midpoint of the jittered Retry-After hint.
const retryAfterBase = 2 * time.Second

// retryRNG is the jitter source behind retryAfter. It is a locked
// *local* source, not the shared global math/rand state: request
// handlers must not contend on (or perturb) whatever else in the
// process uses the global generator, and tests must be able to seed
// the jitter deterministically without racing other rand users.
var retryRNG = struct {
	sync.Mutex
	*rand.Rand
}{Rand: rand.New(rand.NewSource(time.Now().UnixNano()))}

// seedRetryJitter reseeds the jitter source; tests use it to make the
// probabilistic rounding in retryAfter reproducible.
func seedRetryJitter(seed int64) {
	retryRNG.Lock()
	retryRNG.Rand = rand.New(rand.NewSource(seed))
	retryRNG.Unlock()
}

// retryAfter renders base ± 25% jitter as whole seconds, so a burst of
// rejected clients does not re-arrive as one synchronized burst. The
// sub-second remainder rounds probabilistically — integer granularity
// would otherwise collapse the jitter back onto a single value. Both
// draws come from one locked acquisition so a seeded sequence is
// deterministic even under concurrent handlers.
func retryAfter() string {
	retryRNG.Lock()
	scale, round := retryRNG.Float64(), retryRNG.Float64()
	retryRNG.Unlock()
	secs := retryAfterBase.Seconds() * (0.75 + 0.5*scale)
	n := int(secs)
	if round < secs-float64(n) {
		n++
	}
	if n < 1 {
		n = 1
	}
	return strconv.Itoa(n)
}

// timeout clamps a request's timeout_ms to the server's JobTimeout cap.
func (s *Server) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if s.opts.JobTimeout > 0 && (d == 0 || d > s.opts.JobTimeout) {
		d = s.opts.JobTimeout
	}
	return d
}

// MaxRequestBody bounds every JSON request body. Decoding used to run
// behind a silent io.LimitReader truncation, which surfaced a multi-MB
// body as a confusing 400 "unexpected EOF" (and, before the limit, as
// an unbounded allocation); MaxBytesReader both caps the read and lets
// the handler answer an honest 413.
const MaxRequestBody = 1 << 20

// DecodeRequest decodes a bounded JSON body into v. The returned
// status is 413 when the body blew the cap, 400 for malformed JSON,
// 200 on success.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
	}
	return http.StatusOK, nil
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if code, err := DecodeRequest(w, r, &req); err != nil {
		WriteError(w, code, err)
		return
	}
	if req.TimeoutMS < 0 {
		WriteError(w, http.StatusBadRequest, errNegativeTimeout)
		return
	}
	// A run's identity is its content and byKey holds only specs that
	// validate, so a submission whose key is already served is valid
	// too: it is answered before it is validated or a job is built.
	key := req.Key()
	s.mu.Lock()
	admitted, err := s.coalesceLocked(key)
	s.mu.Unlock()
	coalesced := admitted != nil
	if err == nil && !coalesced {
		if err := req.RunSpec.Validate(); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		j := newJob(KindRun)
		j.Spec = &req
		j.Timeout = s.timeout(req.TimeoutMS)
		j.key = key
		j.RequestID = telemetry.RequestIDFrom(r.Context())
		j.parentSpan = httpSpan(r.Context()).ID()
		admitted, coalesced, err = s.submit(j)
	}
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	httpSpan(r.Context()).SetJobID(admitted.ID)
	code := http.StatusAccepted
	if coalesced {
		code = http.StatusOK
	}
	WriteJSON(w, code, submitView{
		ID:        admitted.ID,
		Status:    admitted.State(),
		Location:  "/v1/runs/" + admitted.ID,
		Coalesced: coalesced,
	})
}

func (s *Server) handleSubmitExperiments(w http.ResponseWriter, r *http.Request) {
	var req experimentsRequest
	if code, err := DecodeRequest(w, r, &req); err != nil {
		WriteError(w, code, err)
		return
	}
	if len(req.IDs) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("ids must be non-empty"))
		return
	}
	ids := req.IDs
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range ids {
			if _, err := experiments.ByID(id); err != nil {
				WriteError(w, http.StatusBadRequest, err)
				return
			}
		}
	}
	j := newJob(KindExperiments)
	j.ExpIDs = ids
	j.Timeout = s.timeout(req.TimeoutMS)
	j.RequestID = telemetry.RequestIDFrom(r.Context())
	j.parentSpan = httpSpan(r.Context()).ID()

	admitted, _, err := s.submit(j)
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	httpSpan(r.Context()).SetJobID(admitted.ID)
	WriteJSON(w, http.StatusAccepted, submitView{
		ID:       admitted.ID,
		Status:   admitted.State(),
		Location: "/v1/runs/" + admitted.ID,
	})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeBody(w, http.StatusOK, j.render())
}

// progressLine is the JSONL rendering of a live progress report, both
// folded into the events follow-stream (kind "progress") and returned
// by GET /v1/runs/{id}/progress.
type progressLine struct {
	Kind    string    `json:"kind"`
	Time    time.Time `json:"time"`
	Phase   string    `json:"phase"`
	Retired uint64    `json:"retired"`
	Target  uint64    `json:"target"`
	Percent float64   `json:"percent"`
	Cycle   int64     `json:"cycle"`
}

func newProgressLine(p telemetry.Progress, at time.Time) progressLine {
	l := progressLine{
		Kind: "progress", Time: at,
		Phase: p.Phase, Retired: p.Retired, Target: p.Target, Cycle: p.Cycle,
	}
	if p.Target > 0 {
		l.Percent = 100 * float64(p.Retired) / float64(p.Target)
		if l.Percent > 100 {
			l.Percent = 100
		}
	}
	return l
}

// progressTick is how often the events follow-stream samples the job's
// live simulation progress between lifecycle events.
const progressTick = 250 * time.Millisecond

// handleJobEvents streams a job's lifecycle events as JSONL, following
// until the job reaches a terminal state or the client goes away. While
// the job runs, live simulation progress is folded into the stream as
// lines with kind "progress", sampled on a ticker rather than per
// report.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(progressTick)
	defer ticker.Stop()
	next := 0
	var lastProgress time.Time
	for {
		events, changed, terminal := j.eventsSince(next)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		next += len(events)
		if fl != nil && len(events) > 0 {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-ticker.C:
			if p, at, ok := j.Progress(); ok && at.After(lastProgress) {
				lastProgress = at
				if err := enc.Encode(newProgressLine(p, at)); err != nil {
					return
				}
				if fl != nil {
					fl.Flush()
				}
			}
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// handleJobProgress returns the job's latest simulation progress report
// (zero-valued until the simulator's first report arrives).
func (s *Server) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	p, at, _ := j.Progress()
	line := newProgressLine(p, at)
	WriteJSON(w, http.StatusOK, struct {
		ID     string   `json:"id"`
		Status JobState `json:"status"`
		progressLine
	}{ID: j.ID, Status: j.State(), progressLine: line})
}

// handleJobTrace exports the job's spans (HTTP submit, queue wait,
// session, checkpoint and simulation phases) as Chrome trace_event
// JSON — loadable in chrome://tracing or Perfetto.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.spans.WriteChromeTrace(w, j.ID); err != nil {
		s.log.Debug("trace export aborted", "job_id", j.ID, "err", err)
	}
}

// handleDebugTrace exports the daemon-wide span ring as Chrome
// trace_event JSON, one lane per job plus a daemon lane.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.spans.WriteChromeTrace(w, ""); err != nil {
		s.log.Debug("trace export aborted", "err", err)
	}
}

// experimentView is one row of GET /v1/experiments.
type experimentView struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper,omitempty"`
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	out := make([]experimentView, 0)
	for _, e := range experiments.All() {
		out = append(out, experimentView{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// MetricsSnapshot is GET /metrics: its JSON shape, and through the prom
// tags (see telemetry.WritePrometheus) its Prometheus series — each
// metric is declared once, here.
type MetricsSnapshot struct {
	QueueDepth    int   `json:"queue_depth" prom:"ipcpd_queue_depth,gauge" help:"Jobs admitted but not yet started."`
	QueueCapacity int   `json:"queue_capacity" prom:"ipcpd_queue_capacity,gauge" help:"Bounded queue capacity; a full queue rejects with 429."`
	InFlight      int64 `json:"in_flight" prom:"ipcpd_in_flight_jobs,gauge" help:"Jobs currently executing."`
	Draining      bool  `json:"draining" prom:"ipcpd_draining,gauge" help:"1 while admission is closed for graceful shutdown."`

	// Jobs by admission and terminal outcome; Shed counts deadline-aware
	// load-shedding refusals, Stalled watchdog-reaped jobs.
	Jobs struct {
		Admitted  uint64 `json:"admitted" prom:"ipcpd_jobs_total{outcome=admitted},counter" help:"Jobs by admission/terminal outcome."`
		Rejected  uint64 `json:"rejected" prom:"ipcpd_jobs_total{outcome=rejected},counter"`
		Shed      uint64 `json:"shed" prom:"ipcpd_jobs_total{outcome=shed},counter"`
		Coalesced uint64 `json:"coalesced" prom:"ipcpd_jobs_total{outcome=coalesced},counter"`
		Completed uint64 `json:"completed" prom:"ipcpd_jobs_total{outcome=completed},counter"`
		Failed    uint64 `json:"failed" prom:"ipcpd_jobs_total{outcome=failed},counter"`
		Stalled   uint64 `json:"stalled" prom:"ipcpd_jobs_total{outcome=stalled},counter"`
	} `json:"jobs"`

	// Session counters: how run requests were satisfied underneath the
	// job layer (memo, disk checkpoint, single-flight coalescing), the
	// checkpoint store's durability counters, the shared-warmup and
	// remote-blob dispositions and the scheduler self-profile.
	Session experiments.SessionStats `json:"session"`

	// Journal counters: the WAL's health this process life. AppendErrors
	// rising means accepted jobs are not crash-durable right now.
	Journal struct {
		Enabled       bool   `json:"enabled" prom:"ipcpd_journal_enabled,gauge" help:"1 when jobs are write-ahead journaled (-journal-dir)."`
		ReplayedJobs  uint64 `json:"replayed_jobs" prom:"ipcpd_journal_replayed_jobs,gauge" help:"Jobs restored from the journal at startup."`
		Appended      uint64 `json:"appended" prom:"ipcpd_journal_records_total{result=appended},counter" help:"Job-journal WAL appends this process life, by result."`
		AppendErrors  uint64 `json:"append_errors" prom:"ipcpd_journal_records_total{result=error},counter"`
		DamagedFrames uint64 `json:"damaged_frames" prom:"ipcpd_journal_damaged_frames_total,counter" help:"Damaged WAL frames discarded during replay."`
	} `json:"journal"`

	// QueueWait is admission → worker pickup, Execution is pickup →
	// finish, and JobLatency is the end-to-end sum of the two — all in
	// seconds, observed when the respective boundary is crossed. The
	// split tells queue backpressure apart from slow simulations.
	QueueWait  telemetry.HistogramSnapshot `json:"queue_wait_s" prom:"ipcpd_job_queue_wait_seconds,histogram" help:"Time from admission to a worker picking the job up."`
	Execution  telemetry.HistogramSnapshot `json:"execution_s" prom:"ipcpd_job_execution_seconds,histogram" help:"Time from worker pickup to job completion."`
	JobLatency telemetry.HistogramSnapshot `json:"job_latency_s" prom:"ipcpd_job_duration_seconds,histogram" help:"End-to-end job latency (queue wait + execution)."`

	TraceSpansDropped uint64 `json:"trace_spans_dropped" prom:"ipcpd_trace_spans_dropped_total,counter" help:"Spans overwritten in the bounded trace ring."`
}

// Metrics assembles a point-in-time snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	m := s.stats
	m.Draining = s.draining
	s.mu.Unlock()
	m.QueueDepth = len(s.queue)
	m.QueueCapacity = cap(s.queue)
	m.Session = s.session.Stats()
	if s.journal != nil {
		m.Journal.Enabled = true
		m.Journal.ReplayedJobs = s.journal.replayed.Load()
		m.Journal.Appended = s.journal.appended.Load()
		m.Journal.AppendErrors = s.journal.appendErrs.Load()
		m.Journal.DamagedFrames = s.journal.damaged.Load()
	}
	m.QueueWait = s.queueWait.Snapshot()
	m.Execution = s.execution.Snapshot()
	m.JobLatency = s.latency.Snapshot()
	m.TraceSpansDropped = s.spans.Dropped()
	return m
}

// handleMetrics negotiates the representation: scrapers asking for the
// text exposition formats get Prometheus 0.0.4 text; everything else
// (curl, the CLI, existing tooling) keeps the JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if WantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		if err := WritePrometheus(w, s.Metrics(), s.build); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
		}
		return
	}
	WriteJSON(w, http.StatusOK, s.Metrics())
}
