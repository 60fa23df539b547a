package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"ipcp/internal/experiments"
)

// Agent is the worker-side registration client: it announces the
// worker's URL, capacity and scale to the coordinator, then heartbeats at the
// interval the coordinator dictates. Registration retries until it
// succeeds (the worker may come up before the coordinator), and a
// heartbeat answered 404 — this incarnation was declared lost, or the
// coordinator restarted and forgot the fleet — re-registers under a
// fresh id. The agent never gives up: coordinator outages degrade the
// worker to an ordinary standalone daemon, which keeps serving its own
// /v1/runs port throughout.
type Agent struct {
	coord    string // coordinator base URL
	self     string // this worker's advertised URL
	capacity int
	scale    experiments.Scale
	hc       *http.Client
	log      *slog.Logger

	done chan struct{}
}

// StartAgent registers selfURL (capacity concurrent points, simulated
// at scale) with the coordinator at coordURL and keeps the registration
// alive until ctx ends. Returns immediately; registration and
// heartbeats run in the background.
func StartAgent(ctx context.Context, coordURL, selfURL string, capacity int, scale experiments.Scale, log *slog.Logger) *Agent {
	if log == nil {
		log = slog.Default()
	}
	if capacity <= 0 {
		capacity = 1
	}
	a := &Agent{
		coord:    strings.TrimRight(coordURL, "/"),
		self:     strings.TrimRight(selfURL, "/"),
		capacity: capacity,
		scale:    scale,
		hc:       &http.Client{Timeout: 10 * time.Second},
		log:      log,
		done:     make(chan struct{}),
	}
	go a.run(ctx)
	return a
}

// Done closes when the agent has stopped (after ctx ends).
func (a *Agent) Done() <-chan struct{} { return a.done }

func (a *Agent) run(ctx context.Context) {
	defer close(a.done)
	const retry = 500 * time.Millisecond
	for {
		id, interval, err := a.register(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			a.log.Warn("coordinator registration failed; retrying",
				"coordinator", a.coord, "err", err)
			select {
			case <-time.After(retry):
				continue
			case <-ctx.Done():
				return
			}
		}
		a.log.Info("registered with coordinator",
			"coordinator", a.coord, "worker", id, "heartbeat", interval)
		if !a.beat(ctx, id, interval) {
			return // ctx ended
		}
		// Heartbeat rejected: this incarnation was declared lost (or
		// the coordinator restarted). Loop around and re-register.
		a.log.Warn("heartbeat rejected; re-registering", "worker", id)
	}
}

// register announces the worker once; returns the assigned id and the
// heartbeat interval the coordinator wants.
func (a *Agent) register(ctx context.Context) (string, time.Duration, error) {
	body, _ := json.Marshal(registerRequest{URL: a.self, Capacity: a.capacity, Scale: a.scale})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.coord+"/v1/workers", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return "", 0, &registrationError{status: resp.Status}
	}
	var rr registerResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rr); err != nil {
		return "", 0, err
	}
	interval := time.Duration(rr.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	return rr.ID, interval, nil
}

type registrationError struct{ status string }

func (e *registrationError) Error() string { return "coordinator answered " + e.status }

// beat heartbeats until ctx ends (returns false) or the coordinator
// rejects the id (returns true → caller re-registers). Transient
// connection errors are retried on the next tick — a blipped network
// must not force a re-registration that would reassign our points.
func (a *Agent) beat(ctx context.Context, id string, interval time.Duration) bool {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			a.coord+"/v1/workers/"+id+"/heartbeat", nil)
		if err != nil {
			return false
		}
		resp, err := a.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return false
			}
			a.log.Warn("heartbeat failed", "worker", id, "err", err)
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound, http.StatusGone:
			return true
		default:
			a.log.Warn("heartbeat refused", "worker", id, "status", resp.Status)
		}
	}
}
