package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// ExperimentResult is one experiment's outcome within a Report: the
// rendered table on success, or the error that felled it. A failed
// experiment never takes the session down with it.
type ExperimentResult struct {
	ID      string
	Title   string
	Table   *Table
	Err     error
	Elapsed time.Duration
}

// Report is the outcome of running a list of experiments: one result
// per requested experiment, in request order — a table for each that
// completed, an error for each that failed or was cut short — and
// whether the run was cut short by cancellation. On interruption every
// completed table is still present — the report is exactly what a
// SIGINT'd CLI flushes.
type Report struct {
	Results     []ExperimentResult
	Interrupted bool
}

// Failed returns the results whose experiment errored.
func (r *Report) Failed() []ExperimentResult {
	var out []ExperimentResult
	for _, res := range r.Results {
		if res.Err != nil {
			out = append(out, res)
		}
	}
	return out
}

// Markdown renders every completed table with the paper's figure for
// it, the failure list, and an interruption note, in a stable order —
// two runs over the same session state produce byte-identical output.
// It is the one report renderer: the experiments CLI prints it and
// POST /v1/experiments returns it.
func (r *Report) Markdown() string {
	var b strings.Builder
	for _, res := range r.Results {
		if res.Err != nil {
			continue
		}
		b.WriteString(res.Table.Markdown())
		if e, err := ByID(res.ID); err == nil && e.Paper != "" {
			b.WriteString("\nPaper: " + e.Paper + "\n")
		}
		b.WriteString("\n")
	}
	if failed := r.Failed(); len(failed) > 0 {
		b.WriteString("### failed experiments\n\n")
		for _, res := range failed {
			fmt.Fprintf(&b, "- %s: %v\n", res.ID, res.Err)
		}
		b.WriteString("\n")
	}
	if r.Interrupted {
		b.WriteString("> run interrupted: the tables above are the completed subset; " +
			"rerun with the same -cache-dir to resume.\n")
	}
	return b.String()
}

// RunIDs runs the named experiments against the session, all at once:
// each in its own goroutine, so their simulations queue together on the
// session's one admission semaphore and the memo coalesces the runs they
// share. A panic or error inside an experiment becomes that experiment's
// error entry and the rest continue. The report lists the results in
// request order whatever order they finish in, so its markdown does not
// depend on scheduling. An unknown id fails the call before anything
// runs.
//
// Every simulation runs under ctx, so it carries ctx's tracer and
// progress sink, and cancellation (of ctx or of the session's own
// context) cuts short every experiment still running: the report keeps
// each completed table, records each experiment cut short with its
// interruption error, and sets Interrupted.
//
// progress, when non-nil, is called for every experiment with done
// false (table nil) in request order before any of them starts, then
// with done true as each one finishes (table nil on failures). Every
// call is made on the caller's goroutine, so none overlap.
func RunIDs(ctx context.Context, s *Session, ids []string, progress func(res ExperimentResult, done bool)) (*Report, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	if firstError(ctx.Err(), s.ctx.Err()) != nil {
		return &Report{Interrupted: true}, nil
	}
	if progress == nil {
		progress = func(ExperimentResult, bool) {}
	}
	rep := &Report{Results: make([]ExperimentResult, len(exps))}
	for _, e := range exps {
		progress(ExperimentResult{ID: e.ID, Title: e.Title}, false)
	}
	// Each experiment hands its index back when its result is in place,
	// so progress runs here, on the caller's goroutine, one call at a time.
	finished := make(chan int, len(exps))
	for i, e := range exps {
		go func() {
			rep.Results[i] = runExperiment(ctx, s, e)
			finished <- i
		}()
	}
	for range exps {
		res := rep.Results[<-finished]
		if Interrupted(res.Err) {
			rep.Interrupted = true
		}
		progress(res, true)
	}
	return rep, nil
}

// runExperiment runs one experiment with panic isolation — a panic in
// the experiment body (as opposed to in a simulation worker, which
// runSlot already contains) degrades to its error — and notes on its
// table every failed run it asked for (see faultSink).
func runExperiment(ctx context.Context, s *Session, e Experiment) (res ExperimentResult) {
	res = ExperimentResult{ID: e.ID, Title: e.Title}
	faults := &faultSink{faults: make(map[string]RunFault)}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Table, res.Err = nil, fmt.Errorf("experiment %s panicked: %v", e.ID, r)
		}
		res.Elapsed = time.Since(start)
	}()
	res.Table, res.Err = e.Run(context.WithValue(ctx, faultSinkKey{}, faults), s)
	if res.Table != nil {
		// Degraded runs surface next to the n/a cells they caused.
		res.Table.Notes = append(res.Table.Notes, faults.notes()...)
	}
	return res
}

// faultSink collects one experiment's failed runs: every distinct run it
// asked for that ended in a fault, whether it led the run, joined it in
// flight or recalled it from the memo. Session.run finds it in the run's
// context.
type faultSink struct {
	mu     sync.Mutex
	faults map[string]RunFault // by memo key
}

type faultSinkKey struct{}

// noteFault records f in ctx's fault sink, if it carries one.
func noteFault(ctx context.Context, f RunFault) {
	fs, ok := ctx.Value(faultSinkKey{}).(*faultSink)
	if !ok {
		return
	}
	fs.mu.Lock()
	fs.faults[f.Spec] = f
	fs.mu.Unlock()
}

// notes renders the collected faults as table notes, in memo-key order.
func (fs *faultSink) notes() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	keys := make([]string, 0, len(fs.faults))
	for k := range fs.faults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		f := fs.faults[k]
		out[i] = fmt.Sprintf("n/a: run %v failed: %v", f.Workloads, f.Err)
	}
	return out
}
