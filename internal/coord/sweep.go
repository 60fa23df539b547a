package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
)

// --- sweep request & grid expansion ---------------------------------------

// maxPoints caps one sweep's expanded grid.
const maxPoints = 4096

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
	Points []PointSpec `json:"points,omitempty"`

	// TimeoutMS bounds each point's job on the worker (0 = worker cap).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PointSpec is one sweep point on the wire — the very type the
// workers' POST /v1/runs decodes, so fan-out is a direct re-encode.
type PointSpec = serve.RunRequest

// expand validates the request and produces the point list in caller
// order: grid cross product (workload outermost, then l1d, l2, llc —
// so points sharing a warmup identity are contiguous), then explicit
// points.
func (r *SweepRequest) expand(maxPoints int) ([]PointSpec, error) {
	if r.TimeoutMS < 0 {
		return nil, errors.New("timeout_ms must be >= 0")
	}
	axis := func(vals []string) []string {
		if len(vals) == 0 {
			return []string{""}
		}
		return vals
	}
	var pts []PointSpec
	for _, wl := range r.Workloads {
		for _, l1d := range axis(r.L1D) {
			for _, l2 := range axis(r.L2) {
				for _, llc := range axis(r.LLC) {
					p := PointSpec{RunSpec: r.RunSpec}
					p.Workloads = []string{wl}
					p.L1D, p.L2, p.LLC = l1d, l2, llc
					pts = append(pts, p)
				}
			}
		}
	}
	pts = append(pts, r.Points...)
	if len(pts) == 0 {
		return nil, errors.New("sweep expands to zero points")
	}
	if len(pts) > maxPoints {
		return nil, fmt.Errorf("sweep expands to %d points, cap is %d", len(pts), maxPoints)
	}
	for i := range pts {
		if err := pts[i].Validate(); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return pts, nil
}

// groupKey is the point's warmup identity. Only equality matters for
// sharding — the workers own the actual scale — so grouping uses a
// fixed reference scale; every field of the key that varies between
// points comes from the spec itself.
func groupKey(p PointSpec) string {
	return experiments.WarmupKey(experiments.Quick, p.RunSpec)
}

// --- sweep state -----------------------------------------------------------

type pointStatus string

const (
	pointPending pointStatus = "pending"
	pointRunning pointStatus = "running"
	pointDone    pointStatus = "done"
	pointFailed  pointStatus = "failed"
)

// point is one sweep point's lifecycle; guarded by its sweep's mu.
type point struct {
	Index    int
	Spec     PointSpec
	Group    string
	Status   pointStatus
	Worker   string
	JobID    string
	Attempts int
	Result   *sim.Result
	Err      string
}

// sweepEvent is one line of a sweep's JSONL follow-stream. Every event
// carries the running aggregation (done/failed/total) so a client can
// render partial progress without replaying state.
type sweepEvent struct {
	Seq    int       `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`  // accepted | point | done
	Point  int       `json:"point"` // meaningful on point/reassign kinds; 0 is a real index, never omitted
	Worker string    `json:"worker,omitempty"`
	Msg    string    `json:"msg,omitempty"`
	Done   int       `json:"done"`
	Failed int       `json:"failed"`
	Total  int       `json:"total"`
}

// sweep is one accepted grid and its scheduling state.
type sweep struct {
	ID        string
	RequestID string // on every fan-out request and span: the client's X-Request-ID, else ID
	Submitted time.Time
	TimeoutMS int64
	Groups    int

	mu       sync.Mutex
	points   []*point
	state    string // running | done
	done     int
	failed   int
	finished time.Time
	events   []sweepEvent
	changed  chan struct{}
}

func (sw *sweep) notifyLocked() {
	close(sw.changed)
	sw.changed = make(chan struct{})
}

func (sw *sweep) eventLocked(kind string, pt int, wkr, msg string) {
	sw.events = append(sw.events, sweepEvent{
		Seq: len(sw.events), Time: time.Now(), Kind: kind,
		Point: pt, Worker: wkr, Msg: msg,
		Done: sw.done, Failed: sw.failed, Total: len(sw.points),
	})
	sw.notifyLocked()
}

// eventsSince returns events at seq and beyond, the channel the next
// mutation closes, and whether the sweep is terminal.
func (sw *sweep) eventsSince(seq int) (events []sweepEvent, changed <-chan struct{}, terminal bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if seq < len(sw.events) {
		events = append(events, sw.events[seq:]...)
	}
	return events, sw.changed, sw.state == "done"
}

// begin marks a point running on a worker.
func (sw *sweep) begin(pt *point, workerID string) {
	sw.mu.Lock()
	pt.Status = pointRunning
	pt.Worker = workerID
	pt.Attempts++
	sw.mu.Unlock()
}

// finish records a point's terminal outcome and emits the aggregation
// event. Reassigned points re-enter via begin; finish is final.
func (sw *sweep) finish(pt *point, res *sim.Result, errMsg string) {
	sw.mu.Lock()
	if errMsg != "" {
		pt.Status = pointFailed
		pt.Err = errMsg
		sw.failed++
	} else {
		pt.Status = pointDone
		pt.Result = res
		sw.done++
	}
	sw.eventLocked("point", pt.Index, pt.Worker, errMsg)
	sw.mu.Unlock()
}

// pointView / sweepView are the JSON shapes of GET /v1/sweeps/{id}.
type pointView struct {
	Index    int         `json:"index"`
	Spec     PointSpec   `json:"spec"`
	Group    string      `json:"group"`
	Status   pointStatus `json:"status"`
	Worker   string      `json:"worker,omitempty"`
	JobID    string      `json:"job_id,omitempty"`
	Attempts int         `json:"attempts"`
	Result   *sim.Result `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
}

type sweepView struct {
	ID        string      `json:"id"`
	Status    string      `json:"status"`
	Submitted time.Time   `json:"submitted"`
	Finished  *time.Time  `json:"finished,omitempty"`
	ElapsedS  float64     `json:"elapsed_s,omitempty"`
	Total     int         `json:"total"`
	Done      int         `json:"done"`
	Failed    int         `json:"failed"`
	Groups    int         `json:"groups"`
	Points    []pointView `json:"points"`
}

func (sw *sweep) view(withPoints bool) sweepView {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	v := sweepView{
		ID: sw.ID, Status: sw.state, Submitted: sw.Submitted,
		Total: len(sw.points), Done: sw.done, Failed: sw.failed,
		Groups: sw.Groups,
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		v.Finished = &t
		v.ElapsedS = sw.finished.Sub(sw.Submitted).Seconds()
	}
	if withPoints {
		v.Points = make([]pointView, len(sw.points))
		for i, pt := range sw.points {
			v.Points[i] = pointView{
				Index: pt.Index, Spec: pt.Spec, Group: pt.Group,
				Status: pt.Status, Worker: pt.Worker, JobID: pt.JobID,
				Attempts: pt.Attempts, Result: pt.Result, Error: pt.Err,
			}
		}
	}
	return v
}

// --- scheduling ------------------------------------------------------------

// acceptSweep expands the grid, registers the sweep and starts its
// scheduler. The returned sweep is already running. requestID is the
// submitting client's X-Request-ID ("" when it sent none).
func (c *Coordinator) acceptSweep(req SweepRequest, requestID string) (*sweep, error) {
	pts, err := req.expand(maxPoints)
	if err != nil {
		return nil, err
	}
	sw := &sweep{
		RequestID: requestID,
		Submitted: time.Now(),
		TimeoutMS: req.TimeoutMS,
		state:     "running",
		changed:   make(chan struct{}),
	}
	groups := make(map[string][]*point)
	var order []string
	for i, p := range pts {
		if p.TimeoutMS == 0 {
			p.TimeoutMS = req.TimeoutMS
		}
		g := groupKey(p)
		pt := &point{Index: i, Spec: p, Group: g, Status: pointPending}
		sw.points = append(sw.points, pt)
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], pt)
	}
	sw.Groups = len(order)

	c.mu.Lock()
	c.nextS++
	sw.ID = fmt.Sprintf("s%06d", c.nextS)
	c.sweeps[sw.ID] = sw
	c.stats.Sweeps.Accepted++
	c.mu.Unlock()
	if sw.RequestID == "" {
		sw.RequestID = sw.ID
	}

	sw.mu.Lock()
	sw.eventLocked("accepted", 0, "", fmt.Sprintf("%d points in %d warmup groups", len(pts), len(order)))
	sw.mu.Unlock()
	c.log.Info("sweep accepted", "sweep", sw.ID, "points", len(pts), "groups", len(order))

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		var gwg sync.WaitGroup
		for _, g := range order {
			gwg.Add(1)
			go func(pts []*point) {
				defer gwg.Done()
				c.runGroup(sw, pts)
			}(groups[g])
		}
		gwg.Wait()
		sw.mu.Lock()
		sw.state = "done"
		sw.finished = time.Now()
		sw.eventLocked("done", 0, "", "")
		done, failed := sw.done, sw.failed
		sw.mu.Unlock()
		c.count(&c.stats.Sweeps.Completed, 1)
		c.log.Info("sweep done", "sweep", sw.ID, "done", done, "failed", failed)
	}()
	return sw, nil
}

// lookupSweep returns a sweep by id.
func (c *Coordinator) lookupSweep(id string) (*sweep, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	return sw, ok
}

// errWorkerLost marks a point attempt that died with its worker (as
// opposed to a deterministic simulation failure): the point is still
// pending and must be reassigned.
var errWorkerLost = errors.New("worker lost")

// runGroup drives one warmup-identity group to completion. The whole
// group is assigned to a single worker so its shared warmup simulates
// once and every other point forks the snapshot locally; when that
// worker is lost mid-group, the surviving points reassign (as a group)
// to the next one.
func (c *Coordinator) runGroup(sw *sweep, pts []*point) {
	remaining := pts
	for len(remaining) > 0 {
		w, err := c.pickWorker(len(remaining))
		if err != nil {
			// Coordinator shutting down: fail what's left.
			for _, pt := range remaining {
				sw.finish(pt, nil, "coordinator shut down: "+err.Error())
				c.count(&c.stats.Points.Failed, 1)
			}
			return
		}
		lost := c.runGroupOn(sw, w, remaining)
		c.release(w, len(remaining))
		if len(lost) > 0 {
			c.count(&c.stats.Points.Reassigned, len(lost))
			sw.mu.Lock()
			sw.eventLocked("reassign", lost[0].Index, w.ID,
				fmt.Sprintf("%d points reassigned from lost worker %s", len(lost), w.ID))
			sw.mu.Unlock()
		}
		remaining = lost
	}
}

// runGroupOn fans a group's points onto one worker, bounded by its
// capacity semaphore (shared across all groups assigned to it), and
// returns the points that were lost with the worker.
func (c *Coordinator) runGroupOn(sw *sweep, w *worker, pts []*point) (lost []*point) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, pt := range pts {
		select {
		case w.slots <- struct{}{}:
		case <-w.ctx.Done():
			// Everything not yet scheduled is lost with the worker.
			mu.Lock()
			lost = append(lost, pts[i:]...)
			mu.Unlock()
			wg.Wait()
			return lost
		}
		wg.Add(1)
		go func(pt *point) {
			defer wg.Done()
			defer func() { <-w.slots }()
			if err := c.runPoint(sw, w, pt); err != nil {
				if errors.Is(err, errWorkerLost) {
					mu.Lock()
					lost = append(lost, pt)
					mu.Unlock()
					return
				}
				sw.finish(pt, nil, err.Error())
				c.count(&c.stats.Points.Failed, 1)
				return
			}
			c.count(&c.stats.Points.Done, 1)
		}(pt)
	}
	wg.Wait()
	return lost
}

// runPoint runs one point on a worker: submit, follow the job's event
// stream to its end, fetch the result. Returns errWorkerLost when the
// attempt died with the worker (reassign), any other error for a
// permanent point failure, nil after sw.finish recorded a result. Each
// attempt is one "sweep.point" span stamped with the worker id, so the
// trace export lanes fan-out by worker, and split into submit_ms /
// follow_ms / fetch_ms, so the trace itself says how much of a point
// was the worker's job (the follow) and how much was transport.
func (c *Coordinator) runPoint(sw *sweep, w *worker, pt *point) (err error) {
	sw.begin(pt, w.ID)
	start := time.Now()
	var submit, follow, fetch time.Duration
	defer func() {
		outcome := "done"
		if err != nil {
			outcome = err.Error()
		}
		ms := func(d time.Duration) string { return strconv.FormatFloat(d.Seconds()*1e3, 'f', 3, 64) }
		c.spans.Emit(telemetry.Span{
			Name: "sweep.point", RequestID: sw.RequestID, JobID: w.ID,
			Start: start, Dur: time.Since(start),
			Attrs: []telemetry.SpanAttr{
				{Key: "point", Value: strconv.Itoa(pt.Index)},
				{Key: "attempt", Value: strconv.Itoa(pt.Attempts)},
				{Key: "submit_ms", Value: ms(submit)},
				{Key: "follow_ms", Value: ms(follow)},
				{Key: "fetch_ms", Value: ms(fetch)},
				{Key: "outcome", Value: outcome},
			},
		})
	}()

	jobID, err := c.submitPoint(sw, w, pt)
	submit = time.Since(start)
	if err != nil {
		return err
	}
	sw.mu.Lock()
	pt.JobID = jobID
	sw.mu.Unlock()

	url := w.URL + "/v1/runs/" + jobID
	for {
		// The worker ends a job's JSONL event stream when the job is
		// terminal; the lines are progress for people, the coordinator
		// wants the end. No whole-request timeout: a job may run long.
		t := time.Now()
		err := c.getJob(c.tail, sw, w, url+"/events", func(r io.Reader) error {
			_, err := io.Copy(io.Discard, r)
			return err
		})
		follow += time.Since(t)
		if err != nil {
			return err
		}
		var jv jobView
		t = time.Now()
		err = c.getJob(c.hc, sw, w, url, func(r io.Reader) error {
			return json.NewDecoder(io.LimitReader(r, 64<<20)).Decode(&jv)
		})
		fetch += time.Since(t)
		if err != nil {
			return err
		}
		switch jv.Status {
		case "done":
			if jv.Result == nil {
				return fmt.Errorf("worker %s: job %s done without result", w.ID, jobID)
			}
			sw.finish(pt, jv.Result, "")
			return nil
		case "failed", "stalled":
			// Deterministic simulation outcome: final, not reassigned.
			if jv.Error == "" {
				jv.Error = "job " + jv.Status
			}
			return fmt.Errorf("worker %s: %s", w.ID, jv.Error)
		}
		// The stream ended, the job has not: a worker shutting down ends
		// its streams cleanly. Only the status decides, so follow again;
		// once the worker is really gone the follow itself fails.
	}
}

// submitView / jobView are the slices of the workers' wire shapes the
// coordinator reads back.
type submitView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

type jobView struct {
	ID     string      `json:"id"`
	Status string      `json:"status"`
	Error  string      `json:"error,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
}

// fanout sends one of sw's requests to w. It carries the sweep's
// request id, so one sweep is one id across every worker's logs and
// spans, and w's ctx, so losing the worker or closing the coordinator
// aborts it.
func (c *Coordinator) fanout(hc *http.Client, sw *sweep, w *worker, method, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(w.ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(serve.RequestIDHeader, sw.RequestID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return hc.Do(req)
}

// drain reads (a bounded rest of) a fan-out response and closes it: a
// body closed unread costs the pooled connection.
func drain(body io.ReadCloser) []byte {
	defer body.Close()
	rest, _ := io.ReadAll(io.LimitReader(body, 4096))
	return rest
}

// workerLost declares w lost over a failed fan-out request and returns
// errWorkerLost. A request that failed because w's ctx had already
// ended (lost earlier, or the coordinator is closing) declares nothing.
func (c *Coordinator) workerLost(w *worker, reason string) error {
	if w.ctx.Err() == nil {
		c.markDead(w, reason)
	}
	return errWorkerLost
}

// submitPoint POSTs one point to the worker's /v1/runs, backing off on
// 429 until the worker either admits it or dies.
func (c *Coordinator) submitPoint(sw *sweep, w *worker, pt *point) (string, error) {
	body, err := json.Marshal(pt.Spec)
	if err != nil {
		return "", err
	}
	for {
		if w.ctx.Err() != nil {
			return "", errWorkerLost
		}
		c.count(&c.stats.Fanout.Submitted, 1)
		resp, err := c.fanout(c.hc, sw, w, http.MethodPost, w.URL+"/v1/runs", body)
		if err != nil {
			return "", c.workerLost(w, "submit failed: "+err.Error())
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var sv submitView
			err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&sv)
			drain(resp.Body)
			if err != nil || sv.ID == "" {
				return "", fmt.Errorf("worker %s: malformed submit response: %v", w.ID, err)
			}
			return sv.ID, nil
		case http.StatusTooManyRequests:
			// Backpressure: the worker's queue is full (or it is
			// draining). Honor its Retry-After, held to 1–2 s so neither
			// a missing hint spins nor a dying worker's stalls the sweep.
			ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			drain(resp.Body)
			c.count(&c.stats.Fanout.Retries, 1)
			select {
			case <-time.After(time.Duration(min(max(ra, 1), 2)) * time.Second):
			case <-w.ctx.Done():
				return "", errWorkerLost
			}
		default:
			return "", fmt.Errorf("worker %s refused point: %s: %s",
				w.ID, resp.Status, bytes.TrimSpace(drain(resp.Body)))
		}
	}
}

// getJob GETs one of a worker job's URLs and hands a 200 body to read.
// Every failure is worker loss, declared at once rather than at the
// next heartbeat timeout: a refused or broken connection, a non-200 (a
// worker that forgot an admitted job restarted without its journal),
// and a body that fails to read — for the event stream, one that broke
// before the job was terminal.
func (c *Coordinator) getJob(hc *http.Client, sw *sweep, w *worker, url string, read func(io.Reader) error) error {
	resp, err := c.fanout(hc, sw, w, http.MethodGet, url, nil)
	if err != nil {
		return c.workerLost(w, err.Error())
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return c.workerLost(w, fmt.Sprintf("job vanished: GET %s: %s", url, resp.Status))
	}
	if err := read(resp.Body); err != nil {
		return c.workerLost(w, fmt.Sprintf("GET %s: %v", url, err))
	}
	return nil
}
