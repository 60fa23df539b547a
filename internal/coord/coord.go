// Package coord is the distributed sweep tier: a coordinator that
// shards parameter grids across self-registered ipcpd workers.
//
// Topology: one coordinator, N workers. Workers are ordinary ipcpd
// daemons (run with -worker <coord-url>) that register over HTTP and
// heartbeat; the coordinator accepts a whole parameter grid as one
// POST /v1/sweeps, shards it by warmup identity (experiments.WarmupKey)
// so each group's shared warmup is simulated — and its snapshot forked
// — on exactly one worker, fans the points out through the workers'
// existing /v1/runs API — submit, follow the job's event stream to its
// end, fetch the result; no timer paces a sweep — and merges results. A
// worker that misses heartbeats, drops a connection or breaks an event
// stream before its job is terminal is declared lost and its
// outstanding points are reassigned; a point's simulation failure, by
// contrast, is deterministic and final. Results flow back through a
// shared content-addressed blob store (blobs.go) so nothing is ever
// recomputed twice across the fleet.
package coord

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"ipcp/internal/telemetry"
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

// Coordinator owns the worker registry, the sweep scheduler and the
// blob store. Create with New, serve Handler(), Close when done.
type Coordinator struct {
	opts  Options
	log   *slog.Logger
	blobs *BlobStore
	spans *telemetry.SpanTracer
	hc    *http.Client // submit and fetch: bounded whole-request
	tail  *http.Client // event-stream follows: bounded only by the worker's ctx
	ctx   context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup

	mu      sync.Mutex
	workers map[string]*worker
	sweeps  map[string]*sweep
	nextW   int             // worker id allocator
	nextS   int             // sweep id allocator
	joined  chan struct{}   // closed and replaced by every register
	stats   MetricsSnapshot // the fleet and fan-out counters the coordinator owns
}

// worker is one registered daemon. Mutable fields are guarded by the
// coordinator's mu; ctx (a child of the coordinator's) is cancelled
// when the worker is declared lost, waking every scheduler goroutine
// blocked on it and aborting every request in flight to it.
type worker struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	Capacity int       `json:"capacity"`
	Since    time.Time `json:"registered"`

	lastBeat time.Time
	dead     bool
	ctx      context.Context
	cancel   context.CancelFunc
	assigned int           // points currently assigned (load metric)
	slots    chan struct{} // capacity semaphore
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
	c := &Coordinator{
		opts:    opts,
		log:     opts.Log,
		blobs:   blobs,
		spans:   telemetry.NewSpanTracer(telemetry.DefaultSpanCapacity),
		hc:      &http.Client{Timeout: 30 * time.Second},
		tail:    &http.Client{},
		ctx:     ctx,
		stop:    cancel,
		workers: make(map[string]*worker),
		sweeps:  make(map[string]*sweep),
		joined:  make(chan struct{}),
	}
	c.wg.Add(1)
	go c.reap()
	return c, nil
}

// Close stops the reaper and aborts in-flight sweep scheduling.
func (c *Coordinator) Close() {
	c.stop()
	c.wg.Wait()
}

// --- worker registry -------------------------------------------------------

// register admits (or replaces) a worker. A re-registration from a URL
// we already know supersedes the old entry: the previous incarnation —
// typically a crashed daemon that came back — is declared lost so its
// points reassign, and the new one starts clean.
func (c *Coordinator) register(url string, capacity int) *worker {
	if capacity <= 0 {
		capacity = 1
	}
	url = strings.TrimRight(url, "/") // before comparing: stored URLs are trimmed
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.URL == url && !w.dead {
			c.markDeadLocked(w, "superseded by re-registration")
		}
	}
	c.nextW++
	w := &worker{
		ID:       fmt.Sprintf("w%06d", c.nextW),
		URL:      url,
		Capacity: capacity,
		Since:    time.Now(),
		lastBeat: time.Now(),
		slots:    make(chan struct{}, capacity),
	}
	w.ctx, w.cancel = context.WithCancel(c.ctx)
	c.workers[w.ID] = w
	close(c.joined)
	c.joined = make(chan struct{})
	c.stats.Workers.Registered++
	c.log.Info("worker registered", "worker", w.ID, "url", w.URL, "capacity", capacity)
	return w
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

// pickWorker returns the live worker with the least assigned load,
// reserving n points of load on it, or blocks until register admits
// one. Closing the coordinator aborts the wait.
func (c *Coordinator) pickWorker(n int) (*worker, error) {
	for {
		// First: handing a closing coordinator's worker out spins runGroup.
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		var best *worker
		for _, w := range c.workers {
			if w.dead {
				continue
			}
			if best == nil || w.assigned < best.assigned {
				best = w
			}
		}
		if best != nil {
			best.assigned += n
			c.mu.Unlock()
			return best, nil
		}
		joined := c.joined
		c.mu.Unlock()
		select {
		case <-c.ctx.Done():
		case <-joined:
		}
	}
}

// release returns reserved load to a worker.
func (c *Coordinator) release(w *worker, n int) {
	c.mu.Lock()
	w.assigned -= n
	c.mu.Unlock()
}

// workerViews snapshots the registry for GET /v1/workers and /metrics.
func (c *Coordinator) workerViews() []workerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]workerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, workerView{
			ID: w.ID, URL: w.URL, Capacity: w.Capacity,
			Since: w.Since, LastBeat: w.lastBeat, Dead: w.dead,
			Assigned: w.assigned,
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
