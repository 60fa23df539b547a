package coord

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
	"ipcp/internal/store"
)

// The fleet's endpoints, mounted on the coordinator daemon's mux beside
// serve's sweep, health, metrics and trace routes:
//
//	POST /v1/workers                  worker self-registration
//	POST /v1/workers/{id}/heartbeat   liveness (404 → re-register)
//	GET  /v1/workers                  registry snapshot
//	GET  /v1/blobs/{key}              shared store fetch (ipcp-blob-v1 frame)
//	PUT  /v1/blobs/{key}              shared store push

// Mount adds the fleet's endpoints to mux (serve.Fleet).
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/workers", c.handleListWorkers)
	mux.HandleFunc("GET /v1/blobs/{key}", c.handleGetBlob)
	mux.HandleFunc("PUT /v1/blobs/{key}", c.handlePutBlob)
}

// --- workers ---------------------------------------------------------------

type registerRequest struct {
	URL      string `json:"url"`
	Capacity int    `json:"capacity,omitempty"`
	// Scale is the scale the worker simulates at. The coordinator needs
	// it to find a group's warmup spill in the blob store
	// (experiments.SnapshotKey), and every live worker must share it.
	Scale experiments.Scale `json:"scale"`
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
	wk, err := c.register(req.URL, req.Capacity, req.Scale)
	if err != nil {
		serve.WriteError(w, http.StatusConflict, err)
		return
	}
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
	c.kick() // a landed warmup spill lets other workers fork its group
	serve.WriteJSON(w, http.StatusCreated, map[string]string{"status": "stored"})
}

// --- metrics -----------------------------------------------------------------

// MetricsSnapshot is the coordinator's GET /metrics: the daemon's own
// snapshot (its sweep jobs, journal and idle session) with the fleet's
// counters beside it — the JSON shape and, through the prom tags, the
// Prometheus series (see telemetry.WritePrometheus).
type MetricsSnapshot struct {
	serve.MetricsSnapshot
	Workers struct {
		Registered uint64 `json:"registered" prom:"ipcpc_workers_registered_total,counter" help:"Workers ever registered."`
		Live       int    `json:"live" prom:"ipcpc_workers_live,gauge" help:"Workers currently schedulable."`
		Lost       uint64 `json:"lost" prom:"ipcpc_workers_lost_total,counter" help:"Workers declared lost (missed heartbeats or dropped connections)."`
	} `json:"workers"`
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

// Metrics assembles a point-in-time snapshot of the fleet's counters
// (the embedded daemon snapshot left zero; see Snapshot).
func (c *Coordinator) Metrics() MetricsSnapshot {
	c.mu.Lock()
	m := c.stats
	c.mu.Unlock()
	m.Workers.Live = c.Live()
	m.Blobs.Gets = c.blobs.gets.Load()
	m.Blobs.Hits = c.blobs.getHits.Load()
	m.Blobs.Puts = c.blobs.puts.Load()
	m.Blobs.Rejected = c.blobs.rejected.Load()
	m.Blobs.Quarantined = c.blobs.dir.Quarantined()
	return m
}

// Snapshot is the whole GET /metrics (serve.Fleet): d, the daemon's
// snapshot, with the fleet's counters beside it.
func (c *Coordinator) Snapshot(d serve.MetricsSnapshot) any {
	m := c.Metrics()
	m.MetricsSnapshot = d
	return m
}
