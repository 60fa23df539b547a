package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A tracer records harness-side spans around every call the benchmark
// makes into the system under test. Spans stay in memory and are
// written once, as Chrome trace_event JSON, when the run ends. A nil
// *tracer and a nil *span are valid and record nothing, so the untraced
// pass pays one nil check per call site.
type tracer struct {
	t0 time.Time
	// paused drops new spans: the traced pass runs half its budget with
	// spans off to measure what tracing itself costs.
	paused atomic.Bool

	mu    sync.Mutex
	spans []*span
}

// maxSpans bounds memory on the serving workloads, which make tens of
// thousands of HTTP calls in a run; later spans are dropped.
const maxSpans = 200_000

type span struct {
	tr     *tracer
	ID     int
	Parent int // 0 = root
	Name   string
	Rep    string // shared by every span of one repetition
	Lane   int    // Chrome tid: one lane per client thread
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil parent = root). The new span
// inherits the parent's repetition id and lane.
func (t *tracer) start(parent *span, name string) *span {
	if t == nil || t.paused.Load() {
		return nil
	}
	s := &span{tr: t, Name: name, Start: time.Since(t.t0)}
	if parent != nil {
		s.Parent, s.Rep, s.Lane = parent.ID, parent.Rep, parent.Lane
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.mu.Unlock()
		return nil
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// resume turns span recording back on; nil-safe.
func (t *tracer) resume() {
	if t != nil {
		t.paused.Store(false)
	}
}

// add records a finished span whose times were measured elsewhere (the
// layer-driver process reports its own loop times).
func (t *tracer) add(parent *span, name string, start, end time.Duration) {
	if s := t.start(parent, name); s != nil {
		s.Start, s.End = start, end
	}
}

// child opens a span under s; nil-safe.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.start(s, name)
}

func (s *span) end() {
	if s != nil {
		s.End = time.Since(s.tr.t0)
	}
}

func (s *span) set(key string, v any) *span {
	if s != nil {
		if s.Args == nil {
			s.Args = map[string]any{}
		}
		s.Args[key] = v
	}
	return s
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover (children may overlap one another, so their
// intervals are merged first).
func selfTimes(spans []*span) map[int]time.Duration {
	kids := map[int][]*span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, hi := time.Duration(0), s.Start
		for _, c := range ch {
			lo, end := c.Start, c.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeChrome writes every finished span as a Chrome trace_event
// "complete" event; chrome://tracing and Perfetto load the file as is.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := make([]*span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			spans = append(spans, s)
		}
	}
	t.mu.Unlock()
	self := selfTimes(spans)

	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "rep": s.Rep, "self_us": us(self[s.ID])}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
