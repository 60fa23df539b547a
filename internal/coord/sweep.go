package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ipcp/internal/serve"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
)

// RunSweep is serve.Fleet's execution of a sweep job: each warmup
// group runs concurrently on its own worker, and RunSweep returns when
// every point is final, or early with the error of ctx — the job's, or
// the coordinator's when Close ends it — leaving the rest unfinished.
func (c *Coordinator) RunSweep(ctx context.Context, j *serve.Job) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(c.ctx, cancel)()
	var wg sync.WaitGroup
	for _, pts := range j.Groups() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runGroup(ctx, j, pts)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// errWorkerLost marks a point attempt that died with its worker (as
// opposed to a deterministic simulation failure): the point is still
// pending and must be reassigned.
var errWorkerLost = errors.New("worker lost")

// runGroup drives one warmup-identity group to completion. The whole
// group is assigned to a single worker so its shared warmup simulates
// once and every other point forks the snapshot locally; when that
// worker is lost mid-group, the surviving points reassign (as a group)
// to the next one. The end of ctx leaves the rest unfinished.
func (c *Coordinator) runGroup(ctx context.Context, j *serve.Job, pts []*serve.Point) {
	for remaining := pts; len(remaining) > 0; {
		w, err := c.pickWorker(ctx, len(remaining))
		if err != nil {
			return
		}
		lost := c.runGroupOn(ctx, j, w, remaining)
		c.release(w, len(remaining))
		if len(lost) > 0 && ctx.Err() == nil {
			c.count(&c.stats.Points.Reassigned, len(lost))
			j.Reassigned(len(lost), w.ID)
		}
		remaining = lost
	}
}

// runGroupOn fans a group's points onto one worker, bounded by its
// capacity semaphore (shared across all groups assigned to it), and
// returns the points that were lost with the worker, or with ctx.
func (c *Coordinator) runGroupOn(ctx context.Context, j *serve.Job, w *worker, pts []*serve.Point) (lost []*serve.Point) {
	// Every request to w ends with w (declared lost) or with the sweep.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(w.ctx, cancel)()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, pt := range pts {
		select {
		case w.slots <- struct{}{}:
		case <-ctx.Done():
			// Everything not yet scheduled is lost with the worker.
			mu.Lock()
			lost = append(lost, pts[i:]...)
			mu.Unlock()
			wg.Wait()
			return lost
		}
		wg.Add(1)
		go func(pt *serve.Point) {
			defer wg.Done()
			defer func() { <-w.slots }()
			if err := c.runPoint(ctx, j, w, pt); err != nil {
				if errors.Is(err, errWorkerLost) {
					mu.Lock()
					lost = append(lost, pt)
					mu.Unlock()
					return
				}
				j.FinishPoint(pt, nil, err)
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
// permanent point failure, nil after j.FinishPoint recorded a result.
// Each attempt is one "sweep.point" span stamped with the worker id as
// its job, so the trace export lanes fan-out by worker, and split into
// submit_ms / follow_ms / fetch_ms, so the trace itself says how much
// of a point was the worker's job (the follow) and how much was
// transport.
func (c *Coordinator) runPoint(ctx context.Context, j *serve.Job, w *worker, pt *serve.Point) (err error) {
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
// spans, and ctx (runGroupOn's), so losing the worker or ending the
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
