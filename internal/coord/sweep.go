package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
)

// RunSweep is serve.Fleet's execution of a sweep job: its points are
// placed one at a time on whichever worker slot frees up (pickWorker),
// and RunSweep returns when every point is final, or early with the
// error of ctx — the job's, or the coordinator's when Close ends it —
// leaving the rest unfinished.
func (c *Coordinator) RunSweep(ctx context.Context, j *serve.Job) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(c.ctx, cancel)()
	p := newPlan(j)
	var wg sync.WaitGroup
	for {
		w, g, pt := c.pickWorker(ctx, p)
		if pt == nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runOn(ctx, j, p, w, g, pt)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// errWorkerLost marks a point attempt that died with its worker (as
// opposed to a deterministic simulation failure): the point is still
// pending and must be reassigned.
var errWorkerLost = errors.New("worker lost")

// plan is one sweep's placement state, guarded by the coordinator's mu.
type plan struct {
	groups []*group
	left   int // points not yet final
}

// group is one warmup-identity group of a sweep.
type group struct {
	id      string // serve.Point.Group
	spec    experiments.RunSpec
	pending []*serve.Point // not yet placed, in index order

	// key is the content address of the group's warmup spill under the
	// fleet's scale keyScale; spilled latches once the blob store has it.
	key      string
	keyScale experiments.Scale
	spilled  bool

	// runs points took spent worker-slot time in all: the group's
	// observed mean point time.
	runs  int
	spent time.Duration
}

func newPlan(j *serve.Job) *plan {
	p := &plan{}
	for _, pts := range j.Groups() {
		p.groups = append(p.groups, &group{id: pts[0].Group, spec: pts[0].Spec.RunSpec, pending: slices.Clone(pts)})
		p.left += len(pts)
	}
	return p
}

// meanPoint is the sweep's observed mean point time (1 before any).
func (p *plan) meanPoint() float64 {
	runs, spent := 0, time.Duration(0)
	for _, g := range p.groups {
		runs, spent = runs+g.runs, spent+g.spent
	}
	if runs == 0 {
		return 1
	}
	return float64(spent) / float64(runs)
}

// work is g's remaining work: its pending points times its observed
// mean point time, or mean, the sweep's, when none of its points has
// finished yet.
func (g *group) work(mean float64) float64 {
	if g.runs > 0 {
		mean = float64(g.spent) / float64(g.runs)
	}
	return float64(len(g.pending)) * mean
}

// pickWorker places the sweep's next point: it returns a worker with a
// free slot, reserved, and the point that slot is to run, or blocks
// until a point ends, a slot frees, a blob lands or a worker joins or
// leaves. It returns a nil point once every point is final or ctx (the
// sweep's) has ended.
func (c *Coordinator) pickWorker(ctx context.Context, p *plan) (*worker, *group, *serve.Point) {
	for {
		// First: handing an ended sweep a worker spins RunSweep.
		if ctx.Err() != nil {
			return nil, nil, nil
		}
		c.mu.Lock()
		if p.left == 0 {
			c.mu.Unlock()
			return nil, nil, nil
		}
		for _, w := range c.order {
			if w.busy >= w.Capacity {
				continue
			}
			if g := c.chooseLocked(p, w); g != nil {
				pt := g.pending[0]
				g.pending = g.pending[1:]
				w.busy++
				w.hold(g.id)
				c.mu.Unlock()
				return w, g, pt
			}
		}
		changed := c.changed
		c.mu.Unlock()
		select {
		case <-ctx.Done():
		case <-changed:
		}
	}
}

// chooseLocked picks the group a free slot of w takes its next point
// from, or nil to wait. In order of preference:
//  1. a group w holds, its snapshot resident (or warming) there;
//  2. a group whose warmup spill is in the blob store, which w forks
//     without warming it again;
//  3. the first group no live worker holds, which w warms.
//
// Within the first two, the group with the most remaining work wins.
func (c *Coordinator) chooseLocked(p *plan, w *worker) *group {
	var best *group
	bestRule, bestWork, mean := 4, 0.0, p.meanPoint()
	for _, g := range p.groups {
		if len(g.pending) == 0 {
			continue
		}
		held := c.heldLocked(g)
		rule := 3
		switch {
		case w.holds[g.id]:
			rule = 1
		case c.spilledLocked(g, w.Scale, held):
			rule = 2
		case held:
			continue
		}
		work := g.work(mean)
		if rule < bestRule || rule < 3 && rule == bestRule && work > bestWork {
			best, bestRule, bestWork = g, rule, work
		}
	}
	return best
}

// heldLocked reports whether a live worker holds g.
func (c *Coordinator) heldLocked(g *group) bool {
	for _, w := range c.order {
		if w.holds[g.id] {
			return true
		}
	}
	return false
}

// spilledLocked reports whether g's warmup spill at scale is in the
// blob store. The store is asked once per group — a spill from an
// earlier sweep or life — and again only while a live worker holds the
// group, which is when its spill can land.
func (c *Coordinator) spilledLocked(g *group, scale experiments.Scale, held bool) bool {
	switch {
	case g.key == "" || g.keyScale != scale:
		g.key, g.keyScale = experiments.SnapshotKey(scale, g.spec), scale
		g.spilled = c.blobs.has(g.key)
	case !g.spilled && held:
		g.spilled = c.blobs.has(g.key)
	}
	return g.spilled
}

// runOn runs pt, placed on w by pickWorker, and books its outcome: a
// result or a simulation failure is final; a point lost with its worker
// goes back to the front of its group's pending points.
func (c *Coordinator) runOn(ctx context.Context, j *serve.Job, p *plan, w *worker, g *group, pt *serve.Point) {
	start := time.Now()
	freed := false
	// free returns w's slot, once: when the point's event stream ends
	// (its job is over; the result fetch overlaps the slot's next
	// point), or when the attempt fails.
	free := func(observed bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if freed {
			return
		}
		freed = true
		w.busy--
		if observed {
			g.runs++
			g.spent += time.Since(start)
		}
		c.kickLocked()
	}
	err := c.runPoint(ctx, j, w, pt, func() { free(true) })
	free(false)
	lost := errors.Is(err, errWorkerLost)
	switch {
	case err == nil:
		c.count(&c.stats.Points.Done, 1)
	case !lost:
		j.FinishPoint(pt, nil, err)
		c.count(&c.stats.Points.Failed, 1)
	case ctx.Err() == nil:
		c.count(&c.stats.Points.Reassigned, 1)
		j.Reassigned(pt, w.ID)
	}
	c.mu.Lock()
	if lost {
		g.pending = append([]*serve.Point{pt}, g.pending...)
	} else {
		p.left--
	}
	c.kickLocked()
	c.mu.Unlock()
}

// runPoint runs one point on a worker: submit, follow the job's event
// stream to its end — then ended frees the worker's slot — and fetch
// the result. Returns errWorkerLost when the
// attempt died with the worker (reassign), any other error for a
// permanent point failure, nil after j.FinishPoint recorded a result.
// Each attempt is one "sweep.point" span stamped with the worker id as
// its job, so the trace export lanes fan-out by worker, and split into
// submit_ms / follow_ms / fetch_ms, so the trace itself says how much
// of a point was the worker's job (the follow) and how much was
// transport.
func (c *Coordinator) runPoint(ctx context.Context, j *serve.Job, w *worker, pt *serve.Point, ended func()) (err error) {
	// Every request to w ends with w (declared lost) or with the sweep.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(w.ctx, cancel)()
	attempt := j.BeginPoint(pt, w.ID)
	_, sp := telemetry.StartSpan(ctx, "sweep.point")
	sp.SetJobID(w.ID)
	start := time.Now()
	var submit, follow, fetch time.Duration
	defer func() {
		outcome := "done"
		if err != nil {
			outcome = err.Error()
		}
		ms := func(d time.Duration) string { return strconv.FormatFloat(d.Seconds()*1e3, 'f', 3, 64) }
		sp.SetAttr("point", strconv.Itoa(pt.Index))
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		sp.SetAttr("submit_ms", ms(submit))
		sp.SetAttr("follow_ms", ms(follow))
		sp.SetAttr("fetch_ms", ms(fetch))
		sp.SetAttr("outcome", outcome)
		sp.End()
	}()

	jobID, err := c.submitPoint(ctx, j, w, pt)
	submit = time.Since(start)
	if err != nil {
		return err
	}
	j.PointAdmitted(pt, jobID)

	url := w.URL + "/v1/runs/" + jobID
	for {
		// The worker ends a job's JSONL event stream when the job is
		// terminal; the lines are progress for people, the coordinator
		// wants the end. No whole-request timeout: a job may run long.
		t := time.Now()
		err := c.getJob(ctx, c.tail, j, w, url+"/events", func(r io.Reader) error {
			_, err := io.Copy(io.Discard, r)
			return err
		})
		follow += time.Since(t)
		if err != nil {
			return err
		}
		ended()
		var jv jobView
		t = time.Now()
		err = c.getJob(ctx, c.hc, j, w, url, func(r io.Reader) error {
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
			j.FinishPoint(pt, jv.Result, nil)
			return nil
		case "failed", "stalled":
			if jv.Error == serve.ErrShutdown.Error() {
				// Not the simulation's verdict: the worker shut down
				// under the job, and so left the fleet.
				return c.workerLost(ctx, w, "shut down under job "+jobID)
			}
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

// fanout sends one of j's requests to w. It carries the sweep's
// request id, so one sweep is one id across every worker's logs and
// spans, and ctx (runPoint's), so losing the worker or ending the
// sweep aborts it.
func (c *Coordinator) fanout(ctx context.Context, hc *http.Client, j *serve.Job, method, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(serve.RequestIDHeader, j.RequestID)
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
// errWorkerLost. A request that failed because ctx had already ended
// (w lost earlier, or the sweep ending) declares nothing.
func (c *Coordinator) workerLost(ctx context.Context, w *worker, reason string) error {
	if ctx.Err() == nil {
		c.markDead(w, reason)
	}
	return errWorkerLost
}

// submitPoint POSTs one point to the worker's /v1/runs, backing off on
// 429 until the worker either admits it or dies.
func (c *Coordinator) submitPoint(ctx context.Context, j *serve.Job, w *worker, pt *serve.Point) (string, error) {
	body, err := json.Marshal(pt.Spec)
	if err != nil {
		return "", err
	}
	for {
		if ctx.Err() != nil {
			return "", errWorkerLost
		}
		c.count(&c.stats.Fanout.Submitted, 1)
		resp, err := c.fanout(ctx, c.hc, j, http.MethodPost, w.URL+"/v1/runs", body)
		if err != nil {
			return "", c.workerLost(ctx, w, "submit failed: "+err.Error())
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
			case <-ctx.Done():
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
func (c *Coordinator) getJob(ctx context.Context, hc *http.Client, j *serve.Job, w *worker, url string, read func(io.Reader) error) error {
	resp, err := c.fanout(ctx, hc, j, http.MethodGet, url, nil)
	if err != nil {
		return c.workerLost(ctx, w, err.Error())
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return c.workerLost(ctx, w, fmt.Sprintf("job vanished: GET %s: %s", url, resp.Status))
	}
	if err := read(resp.Body); err != nil {
		return c.workerLost(ctx, w, fmt.Sprintf("GET %s: %v", url, err))
	}
	return nil
}
