package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartSpanWithoutTracerIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "noop")
	if ctx2 != ctx {
		t.Error("StartSpan without a tracer must return the context unchanged")
	}
	if sp != nil {
		t.Error("StartSpan without a tracer must return a nil span")
	}
	// The nil span's whole surface must be safe.
	sp.SetAttr("k", "v")
	sp.SetJobID("j1")
	sp.End()
	if sp.ID() != 0 {
		t.Error("nil span id != 0")
	}
}

func TestSpanParentingAndCorrelation(t *testing.T) {
	tr := NewSpanTracer(64)
	ctx := ContextWithSpanTracer(context.Background(), tr)
	ctx = ContextWithRequestID(ctx, "req-1")
	ctx = ContextWithJobID(ctx, "j000001")

	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	child.SetAttr("outcome", "executed")
	child.End()
	root.End()
	root.End() // idempotent

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c := byName["root"], byName["child"]
	if c.Parent != r.ID {
		t.Errorf("child.Parent = %d, want root id %d", c.Parent, r.ID)
	}
	for _, s := range []Span{r, c} {
		if s.RequestID != "req-1" || s.JobID != "j000001" {
			t.Errorf("span %s correlation = (%q, %q), want (req-1, j000001)", s.Name, s.RequestID, s.JobID)
		}
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != (SpanAttr{"outcome", "executed"}) {
		t.Errorf("child attrs = %+v", c.Attrs)
	}
}

func TestSpanRingOverwritesOldest(t *testing.T) {
	tr := NewSpanTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Span{Name: fmt.Sprintf("s%d", i), Start: time.Unix(int64(i), 0)})
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("Len=%d Dropped=%d, want 4/6", tr.Len(), tr.Dropped())
	}
	var names []string
	for _, s := range tr.Snapshot() {
		names = append(names, s.Name)
	}
	if got, want := fmt.Sprint(names), "[s6 s7 s8 s9]"; got != want {
		t.Errorf("retained = %s, want %s", got, want)
	}
}

// TestSpanTracerConcurrency hammers the ring from many goroutines while
// snapshots and exports run concurrently; run under -race this is the
// lock-free-hot-path safety proof.
func TestSpanTracerConcurrency(t *testing.T) {
	tr := NewSpanTracer(256)
	ctx := ContextWithSpanTracer(context.Background(), tr)

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: snapshots and the Chrome trace export, whole
	// and filtered to one job.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					tr.Snapshot()
				case 1:
					tr.WriteChromeTrace(new(bytes.Buffer), "")
				case 2:
					tr.WriteChromeTrace(new(bytes.Buffer), "j5")
				}
			}
		}(r)
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			jctx := ContextWithJobID(ctx, fmt.Sprintf("j%d", w))
			for i := 0; i < perWriter; i++ {
				c2, sp := StartSpan(jctx, "op")
				_, inner := StartSpan(c2, "inner")
				inner.End()
				sp.SetAttr("i", fmt.Sprint(i))
				sp.End()
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	total := uint64(writers * perWriter * 2)
	if got := tr.Dropped() + uint64(tr.Len()); got != total {
		t.Fatalf("dropped+retained = %d, want %d", got, total)
	}
	if tr.Len() != 256 {
		t.Fatalf("Len = %d, want full ring 256", tr.Len())
	}
}

func TestSpanChromeTraceExport(t *testing.T) {
	tr := NewSpanTracer(64)
	ctx := ContextWithSpanTracer(context.Background(), tr)
	ctx = ContextWithRequestID(ctx, "demo")

	jctx := ContextWithJobID(ctx, "j000001")
	jctx, job := StartSpan(jctx, "job.run")
	_, warm := StartSpan(jctx, "sim.warmup")
	warm.End()
	job.End()
	octx := ContextWithJobID(ctx, "j000002")
	_, other := StartSpan(octx, "job.run")
	other.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, "j000001"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Dur   int64          `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, buf.Bytes())
	}
	var complete []string
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		complete = append(complete, e.Name)
		if e.Dur < 1 {
			t.Errorf("event %s dur = %d, want >= 1", e.Name, e.Dur)
		}
		if rid := e.Args["request_id"]; rid != "demo" {
			t.Errorf("event %s request_id = %v", e.Name, rid)
		}
		if jid := e.Args["job_id"]; jid != "j000001" {
			t.Errorf("event %s job_id = %v (filter leaked)", e.Name, jid)
		}
	}
	if got := fmt.Sprint(complete); !strings.Contains(got, "job.run") || !strings.Contains(got, "sim.warmup") {
		t.Errorf("filtered export = %v, want job.run + sim.warmup", complete)
	}
	if len(complete) != 2 {
		t.Errorf("filtered export has %d complete events, want 2 (j000002 excluded)", len(complete))
	}
}
