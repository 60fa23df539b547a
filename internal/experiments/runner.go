package experiments

import (
	"context"
	"fmt"
	"strings"
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

// Report is the outcome of running a list of experiments: everything
// that completed (in request order), everything that failed, and
// whether the run was cut short by cancellation. On interruption the
// completed tables are all still present — the report is exactly what
// a SIGINT'd CLI flushes.
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

// RunIDs runs the named experiments against the session, isolating each
// one: a panic or error inside an experiment becomes that experiment's
// error entry and the rest continue. Cancellation (of ctx or of the
// session's own context) stops the loop and returns the completed
// prefix with Interrupted set. progress, when non-nil, is called before
// and after each experiment (table nil on the "before" call and on
// failures).
func RunIDs(ctx context.Context, s *Session, ids []string, progress func(res ExperimentResult, done bool)) (*Report, error) {
	rep := &Report{}
	for _, id := range ids {
		e, err := ByID(strings.TrimSpace(id))
		if err != nil {
			return rep, err
		}
		if err := firstError(ctx.Err(), s.ctx.Err()); err != nil {
			rep.Interrupted = true
			return rep, nil
		}
		res := ExperimentResult{ID: e.ID, Title: e.Title}
		if progress != nil {
			progress(res, false)
		}
		start := time.Now()
		before := len(s.Faults())
		res.Table, res.Err = runExperiment(s, e)
		res.Elapsed = time.Since(start)
		if res.Err != nil && fatal(res.Err) {
			rep.Interrupted = true
			// The interrupted experiment is part of the record: it must
			// show up in Failed() and the rendered report, not silently
			// vanish as if it was never started.
			rep.Results = append(rep.Results, res)
			if progress != nil {
				progress(res, true)
			}
			return rep, nil
		}
		if res.Table != nil {
			// Degraded runs surface next to the n/a cells they caused.
			for _, f := range s.Faults()[before:] {
				res.Table.Notes = append(res.Table.Notes,
					fmt.Sprintf("n/a: run %v failed: %v", f.Workloads, f.Err))
			}
		}
		rep.Results = append(rep.Results, res)
		if progress != nil {
			progress(res, true)
		}
	}
	return rep, nil
}

// runExperiment invokes one experiment with panic isolation: a panic in
// the experiment body (as opposed to in a simulation worker, which
// Session.Run already contains) degrades to an error.
func runExperiment(s *Session, e Experiment) (t *Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("experiment %s panicked: %v", e.ID, r)
		}
	}()
	return e.Run(s)
}
