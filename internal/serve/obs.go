package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"ipcp/internal/telemetry"
)

// This file is the daemon's observability seam: request-id propagation
// and per-request spans (instrument), the Prometheus text exposition of
// the /metrics counters, and build identification for /v1/buildinfo and
// run metadata.

// --- request correlation --------------------------------------------------

// RequestIDHeader is accepted on every request and echoed on every
// response; absent, a fresh id is generated so every request is
// correlatable. The coordinator sets it on every fan-out request.
const RequestIDHeader = "X-Request-ID"

// newRequestID returns a 16-hex-char random correlation id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is near-impossible; degrade to a
		// time-derived id rather than an unidentifiable request.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response code for the access log and the
// request span, forwarding Flush so the JSONL follow-streams keep
// streaming through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// httpSpanKey carries the request's span so submit handlers can stamp
// the job id onto it once the job is admitted.
type httpSpanKey struct{}

// httpSpan returns the request's span (nil outside instrument).
func httpSpan(ctx context.Context) *telemetry.ActiveSpan {
	sp, _ := ctx.Value(httpSpanKey{}).(*telemetry.ActiveSpan)
	return sp
}

// instrument wraps the API mux with the observability front door:
// accept or mint an X-Request-ID, echo it on the response, open a span
// covering the handler, and emit one structured access-log line —
// every downstream span and log line carries the same request id.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)

		ctx := telemetry.ContextWithSpanTracer(r.Context(), s.spans)
		ctx = telemetry.ContextWithRequestID(ctx, rid)
		ctx, sp := telemetry.StartSpan(ctx, "http "+r.Method+" "+r.URL.Path)
		ctx = context.WithValue(ctx, httpSpanKey{}, sp)

		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))

		sp.SetAttr("status", strconv.Itoa(rec.code))
		sp.End()
		s.log.Debug("http request",
			"method", r.Method, "path", r.URL.Path, "status", rec.code,
			"duration", time.Since(start), "request_id", rid)
	})
}

// --- build identification -------------------------------------------------

// BuildInfo identifies the running binary: module version, VCS revision
// and Go toolchain, read from the binary's embedded build information.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version"`
	Revision  string `json:"vcs_revision"`
	VCSTime   string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// ReadBuildInfo assembles the binary's identification; fields without
// embedded data (a `go test` binary, a non-VCS build) degrade to
// "unknown" rather than empty strings.
func ReadBuildInfo() BuildInfo {
	out := BuildInfo{GoVersion: runtime.Version(), Version: "unknown", Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.GoVersion = bi.GoVersion
	out.Module = bi.Main.Path
	if bi.Main.Version != "" {
		out.Version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out.Revision = kv.Value
		case "vcs.time":
			out.VCSTime = kv.Value
		case "vcs.modified":
			out.Modified = kv.Value == "true"
		}
	}
	return out
}

func (s *Server) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.build)
}

// --- Prometheus exposition ------------------------------------------------

// WantsPrometheus decides the /metrics representation: any Accept
// preference for the text exposition formats (what prometheus and every
// scraper in its lineage sends) selects them; everything else keeps the
// original JSON shape for compatibility.
func WantsPrometheus(accept string) bool {
	for _, marker := range []string{"text/plain", "openmetrics", "text/*"} {
		if containsToken(accept, marker) {
			return true
		}
	}
	return false
}

// containsToken is a dependency-free substring check (Accept headers
// are comma-separated media ranges; an exact parser buys nothing here).
func containsToken(header, token string) bool {
	for i := 0; i+len(token) <= len(header); i++ {
		if header[i:i+len(token)] == token {
			return true
		}
	}
	return false
}

// writePrometheus renders one consistent metrics snapshot in the text
// exposition format: queue/in-flight gauges, job and session counters
// by outcome, the three latency histograms, trace-ring accounting and
// build identification.
func (s *Server) writePrometheus(w io.Writer) {
	m := s.Metrics()

	telemetry.WritePrometheusValue(w, "ipcpd_queue_depth", "gauge",
		"Jobs admitted but not yet started.", float64(m.QueueDepth))
	telemetry.WritePrometheusValue(w, "ipcpd_queue_capacity", "gauge",
		"Bounded queue capacity; a full queue rejects with 429.", float64(m.QueueCapacity))
	telemetry.WritePrometheusValue(w, "ipcpd_in_flight_jobs", "gauge",
		"Jobs currently executing.", float64(m.InFlight))
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	telemetry.WritePrometheusValue(w, "ipcpd_draining", "gauge",
		"1 while admission is closed for graceful shutdown.", draining)

	telemetry.WritePrometheusHeader(w, "ipcpd_jobs_total", "counter",
		"Jobs by admission/terminal outcome.")
	fmt.Fprintf(w, "ipcpd_jobs_total{outcome=\"admitted\"} %d\n", m.Jobs.Admitted)
	fmt.Fprintf(w, "ipcpd_jobs_total{outcome=\"rejected\"} %d\n", m.Jobs.Rejected)
	fmt.Fprintf(w, "ipcpd_jobs_total{outcome=\"shed\"} %d\n", m.Jobs.Shed)
	fmt.Fprintf(w, "ipcpd_jobs_total{outcome=\"coalesced\"} %d\n", m.Jobs.Coalesced)
	fmt.Fprintf(w, "ipcpd_jobs_total{outcome=\"completed\"} %d\n", m.Jobs.Completed)
	fmt.Fprintf(w, "ipcpd_jobs_total{outcome=\"failed\"} %d\n", m.Jobs.Failed)
	fmt.Fprintf(w, "ipcpd_jobs_total{outcome=\"stalled\"} %d\n", m.Jobs.Stalled)

	telemetry.WritePrometheusHeader(w, "ipcpd_session_runs_total", "counter",
		"Session run dispositions underneath the job layer.")
	fmt.Fprintf(w, "ipcpd_session_runs_total{disposition=\"executed\"} %d\n", m.Session.Executed)
	fmt.Fprintf(w, "ipcpd_session_runs_total{disposition=\"memo_hit\"} %d\n", m.Session.MemoHits)
	fmt.Fprintf(w, "ipcpd_session_runs_total{disposition=\"disk_hit\"} %d\n", m.Session.DiskHits)
	fmt.Fprintf(w, "ipcpd_session_runs_total{disposition=\"coalesced\"} %d\n", m.Session.Coalesced)
	fmt.Fprintf(w, "ipcpd_session_runs_total{disposition=\"fault\"} %d\n", m.Session.Faults)

	telemetry.WritePrometheusHeader(w, "ipcpd_snapshot_store_total", "counter",
		"Shared-warmup snapshot dispositions: forks served from memory or "+
			"the disk spill, and warmups that had to simulate.")
	fmt.Fprintf(w, "ipcpd_snapshot_store_total{disposition=\"mem_hit\"} %d\n", m.Session.SnapshotMemHits)
	fmt.Fprintf(w, "ipcpd_snapshot_store_total{disposition=\"disk_hit\"} %d\n", m.Session.SnapshotDiskHits)
	fmt.Fprintf(w, "ipcpd_snapshot_store_total{disposition=\"miss\"} %d\n", m.Session.SnapshotMisses)
	telemetry.WritePrometheusValue(w, "ipcpd_snapshot_bytes_total", "counter",
		"Warmup snapshot bytes spilled to the disk cache.", float64(m.Session.SnapshotBytes))
	telemetry.WritePrometheusValue(w, "ipcpd_warmups_coalesced_total", "counter",
		"Run jobs that reused an in-flight shared warmup instead of running their own.",
		float64(m.Session.WarmupsCoalesced))
	telemetry.WritePrometheusValue(w, "ipcpd_forked_runs_total", "counter",
		"Measure phases forked from a warmup snapshot.", float64(m.Session.ForkedRuns))

	telemetry.WritePrometheusHeader(w, "ipcpd_remote_blob_total", "counter",
		"Shared blob-store traffic: local misses served remotely and local writes pushed.")
	fmt.Fprintf(w, "ipcpd_remote_blob_total{op=\"hit\"} %d\n", m.Session.RemoteBlobHits)
	fmt.Fprintf(w, "ipcpd_remote_blob_total{op=\"put\"} %d\n", m.Session.RemoteBlobPuts)

	telemetry.WritePrometheusHeader(w, "ipcpd_sim_cycles_total", "counter",
		"Simulated cycles of executed measure phases: stepped (some component clocked) or jumped (none due).")
	fmt.Fprintf(w, "ipcpd_sim_cycles_total{mode=\"stepped\"} %d\n", m.Session.SteppedCycles)
	fmt.Fprintf(w, "ipcpd_sim_cycles_total{mode=\"jumped\"} %d\n", m.Session.JumpedCycles)

	telemetry.WritePrometheusValue(w, "ipcpd_checkpoints_quarantined", "counter",
		"Corrupt checkpoint files detected on load and moved to the corrupt/ subdirectory.",
		float64(m.Session.Quarantined))
	telemetry.WritePrometheusValue(w, "ipcpd_checkpoint_store_failures_total", "counter",
		"Checkpoint writes that failed (results still served from memory).",
		float64(m.Session.StoreFailures))
	telemetry.WritePrometheusValue(w, "ipcpd_checkpoint_saves_pending", "gauge",
		"Results and warmup spills published to their jobs but not yet on disk (write-behind).",
		float64(m.Session.PendingSaves))
	telemetry.WritePrometheusValue(w, "ipcpd_sim_builds_recycled_total", "counter",
		"Simulated systems whose cache arrays were handed back for the next build.",
		float64(m.Session.BuildsRecycled))

	telemetry.WritePrometheusHeader(w, "ipcpd_journal_records_total", "counter",
		"Job-journal WAL appends this process life, by result.")
	fmt.Fprintf(w, "ipcpd_journal_records_total{result=\"appended\"} %d\n", m.Journal.Appended)
	fmt.Fprintf(w, "ipcpd_journal_records_total{result=\"error\"} %d\n", m.Journal.AppendErrors)
	telemetry.WritePrometheusValue(w, "ipcpd_journal_replayed_jobs", "gauge",
		"Jobs restored from the journal at startup.", float64(m.Journal.ReplayedJobs))
	telemetry.WritePrometheusValue(w, "ipcpd_journal_damaged_frames_total", "counter",
		"Damaged WAL frames discarded during replay.", float64(m.Journal.DamagedFrames))

	m.QueueWait.WritePrometheus(w, "ipcpd_job_queue_wait_seconds",
		"Time from admission to a worker picking the job up.")
	m.Execution.WritePrometheus(w, "ipcpd_job_execution_seconds",
		"Time from worker pickup to job completion.")
	m.JobLatency.WritePrometheus(w, "ipcpd_job_duration_seconds",
		"End-to-end job latency (queue wait + execution).")

	telemetry.WritePrometheusValue(w, "ipcpd_trace_spans_dropped_total", "counter",
		"Spans overwritten in the bounded trace ring.", float64(s.spans.Dropped()))

	telemetry.WritePrometheusHeader(w, "ipcpd_build_info", "gauge",
		"Build identification; value is always 1.")
	fmt.Fprintf(w, "ipcpd_build_info{version=%q,revision=%q,goversion=%q} 1\n",
		s.build.Version, s.build.Revision, s.build.GoVersion)
}
