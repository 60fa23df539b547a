package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// This file is the serving-side tracing surface: wall-clock spans with
// parent links and request correlation, recorded into a lock-free
// bounded ring. Where the event Tracer observes one simulation from the
// inside (cycle-stamped, single-goroutine), the SpanTracer observes the
// daemon from the outside — HTTP handlers, queue waits, admission,
// session cache lookups, simulation phases — across many concurrent
// jobs, so every operation here is safe for concurrent use.
//
// Correlation flows through context.Context: the HTTP layer stamps a
// request id (and later a job id) into the context, StartSpan reads
// them plus the enclosing span's id, and every span carries all three.
// A context without a SpanTracer makes StartSpan free: it returns the
// context unchanged and a nil *ActiveSpan whose methods no-op, so
// library code can be instrumented unconditionally.

// SpanAttr is one key/value annotation on a span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed traced operation.
type Span struct {
	ID        uint64        `json:"id"`
	Parent    uint64        `json:"parent,omitempty"`
	Name      string        `json:"name"`
	RequestID string        `json:"request_id,omitempty"`
	JobID     string        `json:"job_id,omitempty"`
	Start     time.Time     `json:"start"`
	Dur       time.Duration `json:"dur"`
	Attrs     []SpanAttr    `json:"attrs,omitempty"`
}

// SpanTracer records completed spans into a bounded ring: once full,
// the oldest spans are overwritten (the recent past is the interesting
// part of a long-running daemon) and Dropped counts the overwritten
// ones. The hot path is lock-free — publishing a span is one atomic
// slot reservation plus one atomic pointer store — and readers
// (Snapshot, the Chrome trace export) see a best-effort consistent copy
// without stalling writers.
type SpanTracer struct {
	slots []atomic.Pointer[Span]
	next  atomic.Uint64 // total spans ever published
	ids   atomic.Uint64 // span id allocator (ids start at 1)
	epoch time.Time     // zero point of exported timestamps
}

// DefaultSpanCapacity is used when NewSpanTracer is given a
// non-positive capacity.
const DefaultSpanCapacity = 1 << 14

// NewSpanTracer returns a tracer retaining up to capacity spans.
func NewSpanTracer(capacity int) *SpanTracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanTracer{slots: make([]atomic.Pointer[Span], capacity), epoch: time.Now()}
}

// NextID allocates a fresh span id (exported for retroactive spans
// built outside StartSpan).
func (t *SpanTracer) NextID() uint64 { return t.ids.Add(1) }

// Emit publishes one completed span, assigning its ID when zero, and
// returns the id. The span value is copied; the caller may reuse it.
func (t *SpanTracer) Emit(s Span) uint64 {
	if s.ID == 0 {
		s.ID = t.NextID()
	}
	i := t.next.Add(1) - 1
	t.slots[i%uint64(len(t.slots))].Store(&s)
	return s.ID
}

// Len returns the number of retained spans.
func (t *SpanTracer) Len() int {
	n := t.next.Load()
	if n > uint64(len(t.slots)) {
		return len(t.slots)
	}
	return int(n)
}

// Cap returns the ring capacity.
func (t *SpanTracer) Cap() int { return len(t.slots) }

// Dropped returns how many spans were overwritten by newer ones.
func (t *SpanTracer) Dropped() uint64 {
	n := t.next.Load()
	if n > uint64(len(t.slots)) {
		return n - uint64(len(t.slots))
	}
	return 0
}

// Snapshot returns a copy of the retained spans ordered by start time.
// Concurrent publishes may land mid-read; the snapshot is best-effort
// (never torn — each slot is an atomic pointer to an immutable span).
func (t *SpanTracer) Snapshot() []Span {
	out := make([]Span, 0, t.Len())
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// --- context correlation --------------------------------------------------

type spanCtxKey int

const (
	ctxKeySpanTracer spanCtxKey = iota
	ctxKeyRequestID
	ctxKeyJobID
	ctxKeyParentSpan
	ctxKeyProgress
)

// ContextWithSpanTracer returns a context whose StartSpan calls record
// into t.
func ContextWithSpanTracer(ctx context.Context, t *SpanTracer) context.Context {
	return context.WithValue(ctx, ctxKeySpanTracer, t)
}

// SpanTracerFrom returns the context's span tracer, or nil.
func SpanTracerFrom(ctx context.Context) *SpanTracer {
	t, _ := ctx.Value(ctxKeySpanTracer).(*SpanTracer)
	return t
}

// ContextWithRequestID stamps a request correlation id; every span and
// log line derived from the context carries it.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestIDFrom returns the context's request id, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// ContextWithJobID stamps the owning job's id onto spans started below.
func ContextWithJobID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyJobID, id)
}

// JobIDFrom returns the context's job id, or "".
func JobIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyJobID).(string)
	return id
}

// ContextWithParentSpan sets the parent span id for spans started below
// (used to link a job's spans back to the HTTP request that submitted
// it, across the queue's goroutine boundary).
func ContextWithParentSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, ctxKeyParentSpan, id)
}

// ParentSpanFrom returns the enclosing span id, or 0.
func ParentSpanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(ctxKeyParentSpan).(uint64)
	return id
}

// Progress is a point-in-time report from a running simulation: how far
// the current phase has advanced toward its per-core instruction
// target.
type Progress struct {
	Phase   string `json:"phase"` // "warmup" | "measure"
	Retired uint64 `json:"retired"`
	Target  uint64 `json:"target"`
	Cycle   int64  `json:"cycle"`
}

// ProgressFunc receives simulation progress reports. Implementations
// must be cheap and concurrency-safe; the simulator calls them from its
// cycle loop (at the cancellation-check cadence, every few thousand
// cycles).
type ProgressFunc func(Progress)

// ContextWithProgress attaches a progress sink for simulations run
// below the context.
func ContextWithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, ctxKeyProgress, fn)
}

// ProgressFrom returns the context's progress sink, or nil.
func ProgressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(ctxKeyProgress).(ProgressFunc)
	return fn
}

// ActiveSpan is an in-flight span returned by StartSpan. A nil
// *ActiveSpan (no tracer in the context) is valid: every method
// no-ops, so instrumented code needs no conditionals. An ActiveSpan is
// owned by the goroutine that started it until End publishes it.
type ActiveSpan struct {
	tr    *SpanTracer
	s     Span
	ended bool
}

// StartSpan begins a span named name, parented to the context's
// enclosing span and stamped with its request/job ids, and returns a
// derived context under which children parent to the new span. Without
// a tracer in ctx it returns (ctx, nil) — free, allocation-less.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	tr := SpanTracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	a := &ActiveSpan{tr: tr}
	a.s = Span{
		ID:        tr.NextID(),
		Parent:    ParentSpanFrom(ctx),
		Name:      name,
		RequestID: RequestIDFrom(ctx),
		JobID:     JobIDFrom(ctx),
		Start:     time.Now(),
	}
	return context.WithValue(ctx, ctxKeyParentSpan, a.s.ID), a
}

// ID returns the span's id (0 on a nil span).
func (a *ActiveSpan) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// SetAttr annotates the span. Later values for the same key are
// appended, not replaced (attr lists stay tiny).
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.s.Attrs = append(a.s.Attrs, SpanAttr{Key: key, Value: value})
}

// SetJobID stamps the owning job onto the span (the submit handler
// learns the job id mid-span).
func (a *ActiveSpan) SetJobID(id string) {
	if a == nil {
		return
	}
	a.s.JobID = id
}

// End completes and publishes the span. Idempotent; safe on nil.
func (a *ActiveSpan) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.s.Dur = time.Since(a.s.Start)
	a.tr.Emit(a.s)
}

// --- export ---------------------------------------------------------------

// WriteChromeTrace writes the retained spans (all, or only jobID's when
// non-empty) as Chrome trace_event JSON, loadable in chrome://tracing
// and Perfetto. Spans become complete ("X") events on one lane per job
// (lane 0 for spans outside any job — HTTP scrapes, health checks);
// timestamps are microseconds since the tracer's epoch.
func (t *SpanTracer) WriteChromeTrace(w io.Writer, jobID string) error {
	spans := t.Snapshot()
	out := make([]chromeEvent, 0, len(spans)+8)

	tids := map[string]int{"": 0}
	laneName := func(job string) string {
		if job == "" {
			return "daemon"
		}
		return "job " + job
	}
	for _, s := range spans {
		if jobID != "" && s.JobID != jobID {
			continue
		}
		if _, ok := tids[s.JobID]; !ok {
			tids[s.JobID] = len(tids)
		}
	}
	// Name every lane up front so the viewer groups spans per job.
	lanes := make([]string, len(tids))
	for job, tid := range tids {
		lanes[tid] = job
	}
	for tid, job := range lanes {
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": laneName(job)},
		})
	}

	for _, s := range spans {
		if jobID != "" && s.JobID != jobID {
			continue
		}
		args := map[string]any{"span": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.RequestID != "" {
			args["request_id"] = s.RequestID
		}
		if s.JobID != "" {
			args["job_id"] = s.JobID
		}
		for _, at := range s.Attrs {
			args[at.Key] = at.Value
		}
		dur := s.Dur.Microseconds()
		if dur < 1 {
			dur = 1 // sub-microsecond spans still render
		}
		out = append(out, chromeEvent{
			Name: s.Name, Phase: "X",
			TS:  s.Start.Sub(t.epoch).Microseconds(),
			Dur: dur, PID: 1, TID: tids[s.JobID],
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{out, "ms"})
}
