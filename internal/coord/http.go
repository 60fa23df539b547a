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

// MetricsSnapshot is the JSON shape of the coordinator's GET /metrics.
type MetricsSnapshot struct {
	Workers struct {
		Registered uint64 `json:"registered"`
		Live       int    `json:"live"`
		Lost       uint64 `json:"lost"`
	} `json:"workers"`
	Sweeps struct {
		Accepted  uint64 `json:"accepted"`
		Active    int    `json:"active"`
		Completed uint64 `json:"completed"`
	} `json:"sweeps"`
	Points struct {
		Done       uint64 `json:"done"`
		Failed     uint64 `json:"failed"`
		Reassigned uint64 `json:"reassigned"`
	} `json:"points"`
	Fanout struct {
		Submitted uint64 `json:"submitted"`
		Retries   uint64 `json:"retries"`
	} `json:"fanout"`
	Blobs struct {
		Gets        uint64 `json:"gets"`
		Hits        uint64 `json:"hits"`
		Puts        uint64 `json:"puts"`
		Rejected    uint64 `json:"rejected"`
		Quarantined uint64 `json:"quarantined"`
	} `json:"blobs"`
}

// Metrics assembles a point-in-time snapshot.
func (c *Coordinator) Metrics() MetricsSnapshot {
	var m MetricsSnapshot
	c.mu.Lock()
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
	m.Workers.Registered = c.workersRegistered.Load()
	m.Workers.Lost = c.workersLost.Load()
	m.Sweeps.Accepted = c.sweepsAccepted.Load()
	m.Sweeps.Completed = c.sweepsCompleted.Load()
	m.Points.Done = c.pointsDone.Load()
	m.Points.Failed = c.pointsFailed.Load()
	m.Points.Reassigned = c.pointsReassigned.Load()
	m.Fanout.Submitted = c.fanoutSubmitted.Load()
	m.Fanout.Retries = c.fanoutRetries.Load()
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
		w.WriteHeader(http.StatusOK)
		c.writePrometheus(w)
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.Metrics())
}

func (c *Coordinator) writePrometheus(w io.Writer) {
	m := c.Metrics()
	telemetry.WritePrometheusValue(w, "ipcpc_workers_registered_total", "counter",
		"Workers ever registered.", float64(m.Workers.Registered))
	telemetry.WritePrometheusValue(w, "ipcpc_workers_live", "gauge",
		"Workers currently schedulable.", float64(m.Workers.Live))
	telemetry.WritePrometheusValue(w, "ipcpc_workers_lost_total", "counter",
		"Workers declared lost (missed heartbeats or dropped connections).",
		float64(m.Workers.Lost))

	telemetry.WritePrometheusHeader(w, "ipcpc_sweeps_total", "counter",
		"Sweeps by lifecycle stage.")
	fmt.Fprintf(w, "ipcpc_sweeps_total{stage=\"accepted\"} %d\n", m.Sweeps.Accepted)
	fmt.Fprintf(w, "ipcpc_sweeps_total{stage=\"completed\"} %d\n", m.Sweeps.Completed)
	telemetry.WritePrometheusValue(w, "ipcpc_sweeps_active", "gauge",
		"Sweeps currently scheduling.", float64(m.Sweeps.Active))

	telemetry.WritePrometheusHeader(w, "ipcpc_points_total", "counter",
		"Sweep points by outcome; reassigned counts points re-fanned-out after worker loss.")
	fmt.Fprintf(w, "ipcpc_points_total{outcome=\"done\"} %d\n", m.Points.Done)
	fmt.Fprintf(w, "ipcpc_points_total{outcome=\"failed\"} %d\n", m.Points.Failed)
	fmt.Fprintf(w, "ipcpc_points_total{outcome=\"reassigned\"} %d\n", m.Points.Reassigned)

	telemetry.WritePrometheusHeader(w, "ipcpc_fanout_total", "counter",
		"Point submissions to workers; retries are 429-backpressure resubmissions.")
	fmt.Fprintf(w, "ipcpc_fanout_total{kind=\"submitted\"} %d\n", m.Fanout.Submitted)
	fmt.Fprintf(w, "ipcpc_fanout_total{kind=\"retry\"} %d\n", m.Fanout.Retries)

	telemetry.WritePrometheusHeader(w, "ipcpc_blob_requests_total", "counter",
		"Shared blob store traffic by operation.")
	fmt.Fprintf(w, "ipcpc_blob_requests_total{op=\"get\"} %d\n", m.Blobs.Gets)
	fmt.Fprintf(w, "ipcpc_blob_requests_total{op=\"hit\"} %d\n", m.Blobs.Hits)
	fmt.Fprintf(w, "ipcpc_blob_requests_total{op=\"put\"} %d\n", m.Blobs.Puts)
	fmt.Fprintf(w, "ipcpc_blob_requests_total{op=\"rejected\"} %d\n", m.Blobs.Rejected)
	fmt.Fprintf(w, "ipcpc_blob_requests_total{op=\"quarantined\"} %d\n", m.Blobs.Quarantined)
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
