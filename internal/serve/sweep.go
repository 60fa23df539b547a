package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/sim"
)

// A sweep is the third job kind: a parameter grid whose points are run
// requests, executed not by this daemon's session but on a Fleet of
// other daemons. It is admitted, queued, journaled, replayed, drained,
// streamed and rendered like any job; only its execution is the
// fleet's. Its journal records are the job's submit (the grid as
// posted: replay expands it again) and finish (every point's outcome).

// Fleet executes sweep jobs. A Server given one is a coordinator: it
// accepts POST /v1/sweeps, refuses runs and experiments (it holds no
// simulator), and serves the fleet's own endpoints beside its own.
type Fleet interface {
	// RunSweep drives every point of the sweep job j to a final outcome
	// (FinishPoint). It returns early only when ctx ends, with ctx's
	// error, leaving the rest unfinished.
	RunSweep(ctx context.Context, j *Job) error
	// Mount adds the fleet's endpoints to the daemon's mux.
	Mount(mux *http.ServeMux)
	// Snapshot is GET /metrics: m, the daemon's own snapshot, with the
	// fleet's counters beside it.
	Snapshot(m MetricsSnapshot) any
	// Live is the number of schedulable workers /healthz reports.
	Live() int
}

// maxSweepPoints caps one sweep's expanded grid.
const maxSweepPoints = 4096

// SweepRequest is the wire form of POST /v1/sweeps: a parameter grid,
// expanded to the cross product workloads × l1d × l2 × llc (an empty
// axis contributes one "off"/default element), plus optional explicit
// points for shapes the grid cannot express (multi-core runs). The
// embedded spec is what every grid point shares — system knobs, seed,
// an IPCP variant — under the names a run request uses; its workloads
// are the grid's first axis (one single-core point per name), and its
// own l1d/l2/llc are shadowed by the axes declared here.
type SweepRequest struct {
	experiments.RunSpec
	L1D []string `json:"l1d,omitempty"`
	L2  []string `json:"l2,omitempty"`
	LLC []string `json:"llc,omitempty"`

	// Points are appended after the expanded grid.
	Points []RunRequest `json:"points,omitempty"`

	// TimeoutMS bounds each point's job on its worker (0 = the worker's
	// cap); an explicit point's own timeout_ms wins.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// expand validates the request and produces the point list in caller
// order: grid cross product (workload outermost, then l1d, l2, llc — so
// points sharing a warmup identity are contiguous), then explicit
// points. The size is checked against maxSweepPoints before anything is
// built, so no body can make it allocate past the cap.
func (r *SweepRequest) expand() ([]RunRequest, error) {
	if r.TimeoutMS < 0 {
		return nil, errNegativeTimeout
	}
	axis := func(vals []string) []string {
		if len(vals) == 0 {
			return []string{""}
		}
		return vals
	}
	n := len(r.Workloads)
	for _, a := range [][]string{r.L1D, r.L2, r.LLC} {
		if n <= maxSweepPoints { // past it, stop multiplying: it stays past it
			n *= len(axis(a))
		}
	}
	if n += len(r.Points); n > maxSweepPoints {
		return nil, fmt.Errorf("sweep expands past the %d-point cap", maxSweepPoints)
	}
	if n == 0 {
		return nil, fmt.Errorf("sweep expands to zero points")
	}
	pts := make([]RunRequest, 0, n)
	for _, wl := range r.Workloads {
		for _, l1d := range axis(r.L1D) {
			for _, l2 := range axis(r.L2) {
				for _, llc := range axis(r.LLC) {
					p := RunRequest{RunSpec: r.RunSpec, TimeoutMS: r.TimeoutMS}
					p.Workloads = []string{wl}
					p.L1D, p.L2, p.LLC = l1d, l2, llc
					pts = append(pts, p)
				}
			}
		}
	}
	for _, p := range r.Points {
		if p.TimeoutMS == 0 {
			p.TimeoutMS = r.TimeoutMS
		}
		pts = append(pts, p)
	}
	for i := range pts {
		if err := pts[i].Validate(); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return pts, nil
}

// PointStatus is a sweep point's lifecycle position: pending → running
// (again after each reassignment) → done | failed.
type PointStatus string

const (
	PointPending PointStatus = "pending"
	PointRunning PointStatus = "running"
	PointDone    PointStatus = "done"
	PointFailed  PointStatus = "failed"
)

// Point is one sweep point: its view on GET /v1/sweeps/{id} and its
// record in the sweep's journaled finish. Index, Spec and Group are set
// at admission; the rest is guarded by the sweep job's mu and changes
// only through the job's point methods.
type Point struct {
	Index    int         `json:"index"`
	Spec     RunRequest  `json:"spec"`
	Group    string      `json:"group"` // warmup identity: the group's points share one warmup
	Status   PointStatus `json:"status"`
	Worker   string      `json:"worker,omitempty"`
	JobID    string      `json:"job_id,omitempty"` // the worker's job for the current attempt
	Attempts int         `json:"attempts"`
	Result   *sim.Result `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// newSweepJob expands req into a queued sweep job, its points grouped
// by warmup identity. Only equality of the group key matters — the
// workers own the actual scale — so it is taken at a fixed reference
// scale.
func newSweepJob(req *SweepRequest) (*Job, error) {
	specs, err := req.expand()
	if err != nil {
		return nil, err
	}
	j := &Job{Kind: KindSweep, Sweep: req}
	j.setPoints(newPoints(specs))
	j.queued(time.Now())
	return j, nil
}

// newPoints returns specs as pending points.
func newPoints(specs []RunRequest) []*Point {
	pts := make([]*Point, len(specs))
	for i, spec := range specs {
		pts[i] = &Point{Index: i, Spec: spec, Group: experiments.WarmupKey(experiments.Quick, spec.RunSpec), Status: PointPending}
	}
	return pts
}

// setPoints installs an unpublished sweep job's points and their
// partition by warmup identity, in order of first appearance.
func (j *Job) setPoints(pts []*Point) {
	j.points = pts
	byGroup := make(map[string]int)
	for _, pt := range pts {
		g, ok := byGroup[pt.Group]
		if !ok {
			g = len(j.groups)
			byGroup[pt.Group] = g
			j.groups = append(j.groups, nil)
		}
		j.groups[g] = append(j.groups[g], pt)
	}
}

// Tally is a sweep's running aggregation, carried on every line of its
// event stream so a client can render partial progress without
// replaying state.
type Tally struct {
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Total  int `json:"total"`
}

func (j *Job) tallyLocked() Tally {
	t := Tally{Total: len(j.points)}
	for _, pt := range j.points {
		switch pt.Status {
		case PointDone:
			t.Done++
		case PointFailed:
			t.Failed++
		}
	}
	return t
}

// sweepView is what GET /v1/sweeps/{id} adds to a job's view.
type sweepView struct {
	Tally
	Groups int     `json:"groups"`
	Points []Point `json:"points"`
}

// Groups returns the sweep's points partitioned by warmup identity, in
// order of first appearance. The fleet warms each group once and forks
// its snapshot for the rest of its points, on whichever workers run them.
func (j *Job) Groups() [][]*Point { return j.groups }

// BeginPoint records an attempt of pt on worker and returns its number.
func (j *Job) BeginPoint(pt *Point, worker string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	pt.Status, pt.Worker, pt.JobID = PointRunning, worker, ""
	pt.Attempts++
	return pt.Attempts
}

// PointAdmitted records the worker's job id for pt's current attempt.
func (j *Job) PointAdmitted(pt *Point, jobID string) {
	j.mu.Lock()
	pt.JobID = jobID
	j.mu.Unlock()
}

// FinishPoint records pt's final outcome, res or err, and emits the
// aggregation event. A point failure is per-point data: the sweep job
// still ends done.
func (j *Job) FinishPoint(pt *Point, res *sim.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	msg := fmt.Sprintf("point %d done on %s", pt.Index, pt.Worker)
	if err != nil {
		pt.Status, pt.Error = PointFailed, err.Error()
		msg = fmt.Sprintf("point %d failed on %s: %v", pt.Index, pt.Worker, err)
	} else {
		pt.Status, pt.Result = PointDone, res
	}
	j.eventLocked(time.Now(), "point", msg)
}

// Reassigned notes on the event stream that pt left worker with its
// loss; it re-enters through BeginPoint on the next worker.
func (j *Job) Reassigned(pt *Point, worker string) {
	j.mu.Lock()
	j.eventLocked(time.Now(), "reassign", fmt.Sprintf("point %d reassigned from lost worker %s", pt.Index, worker))
	j.mu.Unlock()
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if code, err := DecodeRequest(w, r, &req); err != nil {
		WriteError(w, code, err)
		return
	}
	j, err := newSweepJob(&req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	j.Timeout = s.timeout(0)
	s.admit(w, r, j, submitView{Location: "/v1/sweeps/", Points: len(j.points), Groups: len(j.groups)})
}
