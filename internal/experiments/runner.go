package experiments

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ipcp/internal/sim"
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
	if cmp.Or(ctx.Err(), s.ctx.Err()) != nil {
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
// its Plan or Table (as opposed to in a simulation worker, which runSlot
// already contains) degrades to its error. It runs the plan, renders the
// table from the outcomes, and notes on it every failed run of the plan.
func runExperiment(ctx context.Context, s *Session, e Experiment) (res ExperimentResult) {
	res = ExperimentResult{ID: e.ID, Title: e.Title}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Table, res.Err = nil, fmt.Errorf("experiment %s panicked: %v", e.ID, r)
		}
		res.Elapsed = time.Since(start)
	}()
	r, err := s.runPlan(ctx, e.Plan(s.Scale))
	if err == nil {
		res.Table, err = e.Table(s.Scale, r)
	}
	if *r.unplanned != "" {
		err = fmt.Errorf("experiment %s read a run outside its plan: %s", e.ID, *r.unplanned)
	}
	if err != nil {
		res.Table, res.Err = nil, err
		return res
	}
	// Degraded runs surface next to the n/a cells they caused.
	res.Table.Notes = append(res.Table.Notes, r.faultNotes()...)
	return res
}

// Results is the outcome of every run of one experiment's plan, looked
// up by RunSpec.Key.
type Results struct {
	runs      map[string]outcome
	unplanned *string // the first key read that the plan never listed
}

type outcome struct {
	spec RunSpec
	res  *sim.Result
	err  error
}

// runPlan runs the plan's distinct specs at once under ctx — a spec the
// plan lists twice runs once, the memo coalescing only across plans —
// and returns their outcomes. An interrupted run is the error: a
// partial plan renders no table.
func (s *Session) runPlan(ctx context.Context, plan []RunSpec) (Results, error) {
	r := Results{runs: make(map[string]outcome, len(plan)), unplanned: new(string)}
	var keys []string
	var specs []RunSpec
	for _, spec := range plan {
		k := spec.Key()
		if _, dup := r.runs[k]; dup {
			continue
		}
		r.runs[k] = outcome{}
		keys = append(keys, k)
		specs = append(specs, spec)
	}
	results, errs := s.RunAllPartial(ctx, specs)
	for i, spec := range specs {
		if Interrupted(errs[i]) {
			return r, errs[i]
		}
		r.runs[keys[i]] = outcome{spec: spec, res: results[i], err: errs[i]}
	}
	return r, nil
}

// Get returns spec's result, or the error its run ended in. A spec the
// plan never listed is an error too, and fails the experiment whatever
// its Table makes of it.
func (r Results) Get(spec RunSpec) (*sim.Result, error) {
	k := spec.Key()
	o, ok := r.runs[k]
	if !ok {
		if *r.unplanned == "" {
			*r.unplanned = k
		}
		return nil, fmt.Errorf("run %s is not in the plan", k)
	}
	return o.res, o.err
}

// all returns the specs' results in order, or the first failed run's
// error: for tables that have no n/a rendering.
func (r Results) all(specs []RunSpec) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(specs))
	for i, spec := range specs {
		res, err := r.Get(spec)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// faultNotes renders every failed run of the plan as a table note, in
// key order.
func (r Results) faultNotes() []string {
	var failed []string
	for k, o := range r.runs {
		if o.err != nil {
			failed = append(failed, k)
		}
	}
	sort.Strings(failed)
	notes := make([]string, len(failed))
	for i, k := range failed {
		o := r.runs[k]
		notes[i] = fmt.Sprintf("n/a: run %v failed: %v", o.spec.Workloads, o.err)
	}
	return notes
}
