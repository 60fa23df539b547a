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
	"strings"
	"time"

	"ipcp/internal/telemetry"
)

// This file is the daemon's observability seam: request-id propagation
// and per-request spans (instrument), /metrics content negotiation and
// its Prometheus text exposition, and build identification for
// /v1/buildinfo and run metadata.

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
		if strings.Contains(accept, marker) {
			return true
		}
	}
	return false
}

// WritePrometheus renders m, a MetricsSnapshot or a struct embedding
// one, in the text exposition format, then the one series whose value
// lives in its labels: the build identification.
func WritePrometheus(w io.Writer, m any, b BuildInfo) error {
	if err := telemetry.WritePrometheus(w, m); err != nil {
		return err
	}
	io.WriteString(w, "# HELP ipcpd_build_info Build identification; value is always 1.\n# TYPE ipcpd_build_info gauge\n")
	_, err := fmt.Fprintf(w, "ipcpd_build_info{version=%q,revision=%q,goversion=%q} 1\n", b.Version, b.Revision, b.GoVersion)
	return err
}
