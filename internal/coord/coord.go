// Package coord is the distributed half of the sweep tier: the fleet a
// coordinator's sweep jobs run on.
//
// Topology: one coordinator, N workers. The coordinator is an ipcpd
// whose serve.Server has a Coordinator as its serve.Fleet: serve owns
// the sweep job's admission, queue, journal, events and views, and
// hands each job to RunSweep. Workers are ordinary ipcpd daemons (run
// with -worker <coord-url>) that register over HTTP, with their
// capacity and simulation scale, and heartbeat. RunSweep places a
// sweep's points one at a time on whichever worker slot frees up: a
// slot first takes a point of a warmup group its worker already holds
// (the group's snapshot is resident there), then a point of the started
// group with the most remaining work once that group's warmup spill is
// in the shared blob store (the worker forks the spill, so the fleet
// never warms a group twice), then the first point of a group no worker
// holds. Each point goes through the worker's existing /v1/runs API:
// submit, follow the job's event stream to its end (which frees the
// slot), fetch the result; no timer paces a sweep. A worker that misses
// heartbeats, drops a connection, breaks an event stream before its job
// is terminal or shuts down under a job is declared lost and its
// in-flight points return to the pool; a point's simulation failure,
// by contrast, is deterministic and final. Results and warmup spills
// flow through a shared content-addressed blob store (blobs.go) so
// nothing is ever recomputed twice across the fleet.
package coord

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"ipcp/internal/experiments"
)

// Options configures a Coordinator.
type Options struct {
	// DataDir backs the shared blob store. Required.
	DataDir string
	// HeartbeatTimeout is how long a silent worker stays schedulable;
	// workers are told to beat at a third of it. Default 5s.
	HeartbeatTimeout time.Duration
	// Log receives structured logs (nil = discard).
	Log *slog.Logger
}

// Coordinator owns the worker registry, the fan-out executor and the
// blob store: it is the serve.Fleet a coordinator daemon's sweeps run
// on. Create with New, pass as serve.Options.Fleet, Close when done.
type Coordinator struct {
	opts  Options
	log   *slog.Logger
	blobs *BlobStore
	hc    *http.Client // submit and fetch: bounded whole-request
	tail  *http.Client // event-stream follows: bounded only by the worker's ctx
	ctx   context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup

	mu      sync.Mutex
	workers map[string]*worker
	order   []*worker       // live workers in registration order: placement's scan order
	nextW   int             // worker id allocator
	changed chan struct{}   // closed and replaced whenever a placement could change (kickLocked)
	stats   MetricsSnapshot // the fleet and fan-out counters the coordinator owns
}

// worker is one registered daemon. Mutable fields are guarded by the
// coordinator's mu; ctx (a child of the coordinator's) is cancelled
// when the worker is declared lost, waking every scheduler goroutine
// blocked on it and aborting every request in flight to it.
type worker struct {
	ID       string
	URL      string
	Capacity int
	Scale    experiments.Scale
	Since    time.Time

	lastBeat time.Time
	dead     bool
	ctx      context.Context
	cancel   context.CancelFunc
	busy     int             // slots running a point, at most Capacity
	holds    map[string]bool // warmup groups (serve.Point.Group) it has run or runs a point of
	held     []string        // holds' keys, oldest first
}

// holdCap bounds a worker's holds: a worker keeps at most 16 warmup
// snapshots resident (experiments' snapMemCap), so an older hold names
// a snapshot it has likely dropped.
const holdCap = 16

// hold records that w holds group, forgetting its oldest hold past
// holdCap.
func (w *worker) hold(group string) {
	if w.holds[group] {
		return
	}
	w.holds[group] = true
	w.held = append(w.held, group)
	if len(w.held) > holdCap {
		delete(w.holds, w.held[0])
		w.held = w.held[1:]
	}
}

// New creates a coordinator with its blob store under opts.DataDir.
func New(opts Options) (*Coordinator, error) {
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	blobs, err := NewBlobStore(opts.DataDir, opts.Log)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	// A slot's result fetch overlaps its next point's submit and follow,
	// so a worker sees up to three requests per slot at once: keep more
	// idle connections per worker than the default two, or each overlap
	// closes one and the next point dials again.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	c := &Coordinator{
		opts:    opts,
		log:     opts.Log,
		blobs:   blobs,
		hc:      &http.Client{Transport: tr, Timeout: 30 * time.Second},
		tail:    &http.Client{Transport: tr},
		ctx:     ctx,
		stop:    cancel,
		workers: make(map[string]*worker),
		changed: make(chan struct{}),
	}
	c.wg.Add(1)
	go c.reap()
	return c, nil
}

// Close stops the reaper and aborts every sweep still running on the
// fleet (RunSweep returns; the daemon's journal replays it next life).
func (c *Coordinator) Close() {
	c.stop()
	c.wg.Wait()
}

// --- worker registry -------------------------------------------------------

// errScaleMismatch refuses a worker whose scale differs from the live
// fleet's: points of one warmup group cross workers, so a mixed-scale
// fleet would mix methodologies inside one group.
var errScaleMismatch = errors.New("worker scale differs from the fleet's")

// register admits (or replaces) a worker. A re-registration from a URL
// we already know supersedes the old entry: the previous incarnation —
// typically a crashed daemon that came back — is declared lost so its
// points reassign, and the new one starts clean. Every live worker runs
// at one scale, the first live registrant's; another is refused.
func (c *Coordinator) register(url string, capacity int, scale experiments.Scale) (*worker, error) {
	if capacity <= 0 {
		capacity = 1
	}
	url = strings.TrimRight(url, "/") // before comparing: stored URLs are trimmed
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.order {
		if w.URL != url && w.Scale != scale {
			return nil, fmt.Errorf("%w: %+v, fleet runs %+v", errScaleMismatch, scale, w.Scale)
		}
	}
	for _, w := range slices.Clone(c.order) {
		if w.URL == url {
			c.markDeadLocked(w, "superseded by re-registration")
		}
	}
	c.nextW++
	w := &worker{
		ID:       fmt.Sprintf("w%06d", c.nextW),
		URL:      url,
		Capacity: capacity,
		Scale:    scale,
		Since:    time.Now(),
		lastBeat: time.Now(),
		holds:    make(map[string]bool),
	}
	w.ctx, w.cancel = context.WithCancel(c.ctx)
	c.workers[w.ID] = w
	c.order = append(c.order, w)
	c.kickLocked()
	c.stats.Workers.Registered++
	c.log.Info("worker registered", "worker", w.ID, "url", w.URL, "capacity", capacity)
	return w, nil
}

// kickLocked wakes every placement waiting for a change: a worker
// joined or left, a slot freed, a point ended or a blob landed.
func (c *Coordinator) kickLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// kick is kickLocked for a caller not holding mu.
func (c *Coordinator) kick() {
	c.mu.Lock()
	c.kickLocked()
	c.mu.Unlock()
}

// count adds n to one of the coordinator's own counters.
func (c *Coordinator) count(p *uint64, n int) {
	c.mu.Lock()
	*p += uint64(n)
	c.mu.Unlock()
}

// heartbeat refreshes a worker's liveness; unknown or already-lost ids
// report false so the agent re-registers.
func (c *Coordinator) heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok || w.dead {
		return false
	}
	w.lastBeat = time.Now()
	return true
}

// markDead declares a worker lost (idempotent).
func (c *Coordinator) markDead(w *worker, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markDeadLocked(w, reason)
}

func (c *Coordinator) markDeadLocked(w *worker, reason string) {
	if w.dead {
		return
	}
	w.dead = true
	w.cancel()
	c.order = slices.DeleteFunc(c.order, func(o *worker) bool { return o == w })
	c.kickLocked()
	c.stats.Workers.Lost++
	c.log.Warn("worker lost", "worker", w.ID, "url", w.URL, "reason", reason)
}

// reap periodically declares workers lost after a silent heartbeat
// window. Schedulers blocked on those workers wake via their ctx and
// reassign.
func (c *Coordinator) reap() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.HeartbeatTimeout / 3)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-c.opts.HeartbeatTimeout)
		c.mu.Lock()
		for _, w := range c.workers {
			if !w.dead && w.lastBeat.Before(cutoff) {
				c.markDeadLocked(w, "missed heartbeats")
			}
		}
		c.mu.Unlock()
	}
}

// Live is the number of schedulable workers (serve.Fleet: /healthz).
func (c *Coordinator) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// workerViews snapshots the registry for GET /v1/workers.
func (c *Coordinator) workerViews() []workerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]workerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, workerView{
			ID: w.ID, URL: w.URL, Capacity: w.Capacity,
			Since: w.Since, LastBeat: w.lastBeat, Dead: w.dead,
			Assigned: w.busy,
		})
	}
	return out
}

type workerView struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	Capacity int       `json:"capacity"`
	Since    time.Time `json:"registered"`
	LastBeat time.Time `json:"last_heartbeat"`
	Dead     bool      `json:"lost,omitempty"`
	Assigned int       `json:"assigned_points"`
}
