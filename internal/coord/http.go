package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ipcp/internal/serve"
	"ipcp/internal/store"
	"ipcp/internal/telemetry"
)

// The coordinator's HTTP surface:
//
//	POST /v1/workers                  worker self-registration
//	POST /v1/workers/{id}/heartbeat   liveness (404 → re-register)
//	GET  /v1/workers                  registry snapshot
//	POST /v1/sweeps                   submit a parameter grid
//	GET  /v1/sweeps/{id}              merged report (per-point results)
//	GET  /v1/sweeps/{id}/events       JSONL follow-stream (partial aggregation)
//	GET  /v1/blobs/{key}              shared store fetch (ipcp-blob-v1 frame)
//	PUT  /v1/blobs/{key}              shared store push
//	GET  /healthz, /metrics, /debug/trace

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/workers", c.handleListWorkers)
	mux.HandleFunc("POST /v1/sweeps", c.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", c.handleGetSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", c.handleSweepEvents)
	mux.HandleFunc("GET /v1/blobs/{key}", c.handleGetBlob)
	mux.HandleFunc("PUT /v1/blobs/{key}", c.handlePutBlob)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /debug/trace", c.handleDebugTrace)
	return mux
}

// --- workers ---------------------------------------------------------------

type registerRequest struct {
	URL      string `json:"url"`
	Capacity int    `json:"capacity,omitempty"`
}

type registerResponse struct {
	ID          string `json:"id"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if code, err := serve.DecodeRequest(w, r, &req); err != nil {
		serve.WriteError(w, code, err)
		return
	}
	if req.URL == "" {
		serve.WriteError(w, http.StatusBadRequest, errors.New("url must be non-empty"))
		return
	}
	wk := c.register(req.URL, req.Capacity)
	serve.WriteJSON(w, http.StatusCreated, registerResponse{
		ID:          wk.ID,
		HeartbeatMS: (c.opts.HeartbeatTimeout / 3).Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !c.heartbeat(id) {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown or lost worker %q", id))
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.workerViews()})
}

// --- sweeps ----------------------------------------------------------------

type sweepSubmitView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Location string `json:"location"`
	Points   int    `json:"points"`
	Groups   int    `json:"groups"`
}

func (c *Coordinator) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if code, err := serve.DecodeRequest(w, r, &req); err != nil {
		serve.WriteError(w, code, err)
		return
	}
	sw, err := c.acceptSweep(req, r.Header.Get(serve.RequestIDHeader))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	v := sw.view(false)
	serve.WriteJSON(w, http.StatusAccepted, sweepSubmitView{
		ID: sw.ID, Status: v.Status, Location: "/v1/sweeps/" + sw.ID,
		Points: v.Total, Groups: v.Groups,
	})
}

func (c *Coordinator) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := c.lookupSweep(r.PathValue("id"))
	if !ok {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	serve.WriteJSON(w, http.StatusOK, sw.view(true))
}

// handleSweepEvents streams a sweep's lifecycle as JSONL, following
// until the sweep completes or the client goes away. Every line
// carries the running done/failed/total aggregation.
func (c *Coordinator) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := c.lookupSweep(r.PathValue("id"))
	if !ok {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		events, changed, terminal := sw.eventsSince(next)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(events)
		if fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-c.ctx.Done():
			return
		}
	}
}

// --- blobs -----------------------------------------------------------------

func (c *Coordinator) handleGetBlob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		serve.WriteError(w, http.StatusBadRequest, errors.New("key must be 64 hex chars"))
		return
	}
	frame, ok := c.blobs.get(key)
	if !ok {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("no blob %s", key[:8]))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

func (c *Coordinator) handlePutBlob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		serve.WriteError(w, http.StatusBadRequest, errors.New("key must be 64 hex chars"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBlobBody)
	frame, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			c.blobs.rejected.Add(1)
			serve.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("blob exceeds %d bytes", mbe.Limit))
			return
		}
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.blobs.put(key, frame); err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	serve.WriteJSON(w, http.StatusCreated, map[string]string{"status": "stored"})
}

// --- health, metrics, trace ------------------------------------------------

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := 0
	c.mu.Lock()
	for _, wk := range c.workers {
		if !wk.dead {
			live++
		}
	}
	c.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": live})
}

// MetricsSnapshot is the coordinator's GET /metrics: its JSON shape and,
// through the prom tags, its Prometheus series (see
// telemetry.WritePrometheus).
type MetricsSnapshot struct {
	Workers struct {
		Registered uint64 `json:"registered" prom:"ipcpc_workers_registered_total,counter" help:"Workers ever registered."`
		Live       int    `json:"live" prom:"ipcpc_workers_live,gauge" help:"Workers currently schedulable."`
		Lost       uint64 `json:"lost" prom:"ipcpc_workers_lost_total,counter" help:"Workers declared lost (missed heartbeats or dropped connections)."`
	} `json:"workers"`
	Sweeps struct {
		Accepted  uint64 `json:"accepted" prom:"ipcpc_sweeps_total{stage=accepted},counter" help:"Sweeps by lifecycle stage."`
		Active    int    `json:"active" prom:"ipcpc_sweeps_active,gauge" help:"Sweeps currently scheduling."`
		Completed uint64 `json:"completed" prom:"ipcpc_sweeps_total{stage=completed},counter"`
	} `json:"sweeps"`
	// Points by outcome; Reassigned counts points re-fanned-out after
	// their worker was lost.
	Points struct {
		Done       uint64 `json:"done" prom:"ipcpc_points_total{outcome=done},counter" help:"Sweep points by outcome; reassigned counts points re-fanned-out after worker loss."`
		Failed     uint64 `json:"failed" prom:"ipcpc_points_total{outcome=failed},counter"`
		Reassigned uint64 `json:"reassigned" prom:"ipcpc_points_total{outcome=reassigned},counter"`
	} `json:"points"`
	// Fanout counts point submissions; Retries are 429-backpressure
	// resubmissions.
	Fanout struct {
		Submitted uint64 `json:"submitted" prom:"ipcpc_fanout_total{kind=submitted},counter" help:"Point submissions to workers; retries are 429-backpressure resubmissions."`
		Retries   uint64 `json:"retries" prom:"ipcpc_fanout_total{kind=retry},counter"`
	} `json:"fanout"`
	Blobs struct {
		Gets        uint64 `json:"gets" prom:"ipcpc_blob_requests_total{op=get},counter" help:"Shared blob store traffic by operation."`
		Hits        uint64 `json:"hits" prom:"ipcpc_blob_requests_total{op=hit},counter"`
		Puts        uint64 `json:"puts" prom:"ipcpc_blob_requests_total{op=put},counter"`
		Rejected    uint64 `json:"rejected" prom:"ipcpc_blob_requests_total{op=rejected},counter"`
		Quarantined uint64 `json:"quarantined" prom:"ipcpc_blob_requests_total{op=quarantined},counter"`
	} `json:"blobs"`
}

// Metrics assembles a point-in-time snapshot.
func (c *Coordinator) Metrics() MetricsSnapshot {
	c.mu.Lock()
	m := c.stats
	for _, wk := range c.workers {
		if !wk.dead {
			m.Workers.Live++
		}
	}
	for _, sw := range c.sweeps {
		sw.mu.Lock()
		if sw.state != "done" {
			m.Sweeps.Active++
		}
		sw.mu.Unlock()
	}
	c.mu.Unlock()
	m.Blobs.Gets = c.blobs.gets.Load()
	m.Blobs.Hits = c.blobs.getHits.Load()
	m.Blobs.Puts = c.blobs.puts.Load()
	m.Blobs.Rejected = c.blobs.rejected.Load()
	m.Blobs.Quarantined = c.blobs.dir.Quarantined()
	return m
}

// handleMetrics negotiates the representation like the worker daemon's
// /metrics: Prometheus text exposition for scrapers, JSON otherwise.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if serve.WantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		if err := telemetry.WritePrometheus(w, c.Metrics()); err != nil {
			serve.WriteError(w, http.StatusInternalServerError, err)
		}
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.Metrics())
}

// handleDebugTrace exports the coordinator's spans as Chrome
// trace_event JSON. Spans are stamped with worker ids, so the viewer
// lanes the sweep fan-out per worker.
func (c *Coordinator) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = c.spans.WriteChromeTrace(w, r.URL.Query().Get("job"))
}

// Spans exposes the tracer for tests.
func (c *Coordinator) Spans() *telemetry.SpanTracer { return c.spans }
