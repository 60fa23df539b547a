package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
	"ipcp/internal/store"
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testCoord is a coordinator daemon under test: the serve.Server whose
// sweep jobs run on the embedded Coordinator, and its listener.
type testCoord struct {
	*Coordinator
	srv *serve.Server
	ts  *httptest.Server
}

// startCoord boots a coordinator daemon over opts (a temp data dir and
// a discarding logger unless set), journaling to journalDir when set.
func startCoord(t *testing.T, opts Options, journalDir string) *testCoord {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	opts.Log = discardLog()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Fleet: c, JournalDir: journalDir, Log: discardLog()})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCoord{Coordinator: c, srv: srv, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(tc.close)
	return tc
}

// close shuts the daemon down the way ipcpd does: the server (which
// ends every sweep job), its listener, then the fleet. Idempotent.
func (tc *testCoord) close() {
	tc.srv.Close()
	tc.ts.Close()
	tc.Coordinator.Close()
}

// join registers url with c at the e2e workers' scale.
func (c *testCoord) join(t *testing.T, url string, capacity int) *worker {
	t.Helper()
	w, err := c.register(url, capacity, e2eScale)
	if err != nil {
		t.Errorf("register %s: %v", url, err)
	}
	return w
}

// newTestCoord returns a coordinator with fast test timings and its
// httptest front end.
func newTestCoord(t *testing.T) (*testCoord, *httptest.Server) {
	tc := startCoord(t, Options{HeartbeatTimeout: 600 * time.Millisecond}, "")
	return tc, tc.ts
}

// postSweep POSTs req (any JSON-encodable body) to /v1/sweeps and
// returns the status code and the submit view's id.
func postSweep(t *testing.T, coordURL string, req any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(coordURL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sv struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&sv)
	return resp.StatusCode, sv.ID
}

// --- grid expansion ---------------------------------------------------------

// The grid tests POST to a coordinator with no workers: the sweep is
// admitted and expanded, and its points wait in pickWorker, where the
// cleanup's Close leaves them.

func TestSweepExpandCrossProduct(t *testing.T) {
	_, ts := newTestCoord(t)
	req := serve.SweepRequest{
		RunSpec:   experiments.RunSpec{Workloads: []string{"mcf-994", "bwaves-98"}},
		L1D:       []string{"", "ipcp", "spp"},
		L2:        []string{"", "ipcp"},
		TimeoutMS: 5000,
	}
	v := getSweep(t, ts.URL, submitSweep(t, ts.URL, req))
	pts := v.Points
	if len(pts) != 12 || v.Total != 12 {
		t.Fatalf("expanded to %d points (total %d), want 12", len(pts), v.Total)
	}
	// Expansion order is workload-outermost, so points sharing a warmup
	// identity are contiguous; the first six belong to mcf-994.
	for i, pt := range pts[:6] {
		if pt.Spec.Workloads[0] != "mcf-994" {
			t.Errorf("point %d workload = %s, want mcf-994", i, pt.Spec.Workloads[0])
		}
	}
	if pts[0].Spec.L1D != "" || pts[1].Spec.L2 != "ipcp" || pts[2].Spec.L1D != "ipcp" {
		t.Errorf("unexpected expansion order: %+v %+v %+v", pts[0].Spec, pts[1].Spec, pts[2].Spec)
	}
	// Exactly two warmup-identity groups: the prefetcher axes never
	// enter the group key.
	groups := map[string]bool{}
	for _, pt := range pts {
		groups[pt.Group] = true
	}
	if len(groups) != 2 || v.Groups != 2 {
		t.Errorf("grid groups into %d warmup identities (groups %d), want 2", len(groups), v.Groups)
	}
}

// TestSweepWireGolden: the benchmark's grid body (benchmark/daemons.go
// marshals a map, so its keys arrive sorted) decodes onto the embedded
// spec and the axes, expands to points that carry the shared seed, and
// re-encodes to the same fields — the system knobs are the spec's own
// fields now, not a second list, and a knob the grid never heard of
// (an IPCP variant) reaches every point.
func TestSweepWireGolden(t *testing.T) {
	_, ts := newTestCoord(t)
	const body = `{"l1d":["","nl","ipstride","ipcp","spp","bop"],"l2":["","ipcp"],"seed":7,` +
		`"workloads":["mcf-994","lbm-94","gcc-2226","bwaves-2931"]}`
	var req serve.SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	pts := getSweep(t, ts.URL, submitSweep(t, ts.URL, json.RawMessage(body))).Points
	if len(pts) != 48 {
		t.Fatalf("expand = %d points; want 48", len(pts))
	}
	if p := pts[7].Spec; p.Seed != 7 || len(p.Workloads) != 1 || p.L1D != "ipcp" || p.L2 != "ipcp" {
		t.Errorf("point 7 = %+v", p.RunSpec)
	}
	if out, _ := json.Marshal(pts[7].Spec); string(out) != `{"workloads":["mcf-994"],"l1d":"ipcp","l2":"ipcp","seed":7}` {
		t.Errorf("fan-out body = %s", out)
	}
	var sent, back map[string]any
	out, _ := json.Marshal(req)
	json.Unmarshal([]byte(body), &sent)
	json.Unmarshal(out, &back)
	if !reflect.DeepEqual(sent, back) {
		t.Errorf("re-encoded grid\n %s\nwant the fields of\n %s", out, body)
	}

	pts = getSweep(t, ts.URL, submitSweep(t, ts.URL, json.RawMessage(`{"workloads":["mcf-994"],"l2":["","ipcp"],"l1_pq":4,"ipcp_l1":{"degree_gs":4}}`))).Points
	if len(pts) != 2 || pts[1].Spec.IPCPL1 == nil || pts[1].Spec.IPCPL1.DegreeGS != 4 || pts[1].Spec.L1PQ != 4 || pts[1].Spec.L2 != "ipcp" {
		t.Fatalf("variant grid = %+v", pts)
	}
}

func TestSweepExpandValidates(t *testing.T) {
	_, ts := newTestCoord(t)
	cases := []struct {
		name string
		req  serve.SweepRequest
	}{
		{"empty", serve.SweepRequest{}},
		{"unknown workload", serve.SweepRequest{RunSpec: experiments.RunSpec{Workloads: []string{"no-such-trace"}}}},
		{"unknown prefetcher", serve.SweepRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}}, L1D: []string{"warp-drive"}}},
		{"negative timeout", serve.SweepRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}}, TimeoutMS: -1}},
		{"bad explicit point", serve.SweepRequest{Points: []serve.RunRequest{{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994", "mcf-994", "mcf-994"}}}}}},
	}
	for _, tc := range cases {
		if code, _ := postSweep(t, ts.URL, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: POST /v1/sweeps = %d, want 400", tc.name, code)
		}
	}
	// 1 × 65 × 64 = 4160 points, past the cap.
	axis := make([]string, 65)
	big := serve.SweepRequest{RunSpec: experiments.RunSpec{Workloads: []string{"mcf-994"}}, L1D: axis, L2: axis[:64]}
	if code, _ := postSweep(t, ts.URL, big); code != http.StatusBadRequest {
		t.Errorf("POST of a grid beyond the point cap = %d, want 400", code)
	}
}

func TestSweepExpandTimeoutInheritance(t *testing.T) {
	req := serve.SweepRequest{
		RunSpec:   experiments.RunSpec{Workloads: []string{"mcf-994"}},
		Points:    []serve.RunRequest{{RunSpec: experiments.RunSpec{Workloads: []string{"bwaves-98"}}, TimeoutMS: 99}},
		TimeoutMS: 1234,
	}
	_, ts := newTestCoord(t)
	pts := getSweep(t, ts.URL, submitSweep(t, ts.URL, req)).Points
	if got := pts[0].Spec.TimeoutMS; got != 1234 {
		t.Errorf("grid point timeout = %d, want inherited 1234", got)
	}
	if got := pts[1].Spec.TimeoutMS; got != 99 {
		t.Errorf("explicit point timeout = %d, want its own 99", got)
	}
}

// --- blob store --------------------------------------------------------------

func TestBlobStoreHTTPRoundTrip(t *testing.T) {
	c, ts := newTestCoord(t)
	key := strings.Repeat("ab", 32)
	payload := []byte("snapshot bytes")
	frame := store.Frame(store.Blob.Magic, payload)

	// Miss first.
	resp, err := http.Get(ts.URL + "/v1/blobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing blob = %d, want 404", resp.StatusCode)
	}

	put := func(k string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/blobs/"+k, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(key, frame); code != http.StatusCreated {
		t.Fatalf("PUT blob = %d, want 201", code)
	}
	resp, err = http.Get(ts.URL + "/v1/blobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, frame) {
		t.Fatalf("GET blob = %d, frame mismatch", resp.StatusCode)
	}

	// Damage is refused at the door...
	if code := put(strings.Repeat("cd", 32), []byte("not a frame")); code != http.StatusBadRequest {
		t.Fatalf("PUT bad frame = %d, want 400", code)
	}
	// ...and bad keys never touch the filesystem. (Multi-segment
	// traversal attempts already die in the mux's single-segment
	// {key} pattern; single-segment junk dies in store.ValidKey.)
	if code := put(strings.Repeat("ZZ", 32), frame); code != http.StatusBadRequest {
		t.Fatalf("PUT non-hex key = %d, want 400", code)
	}
	if code := put("..", frame); code == http.StatusCreated {
		t.Fatalf("PUT dot-dot key = %d, want a refusal", code)
	}

	m := c.Metrics()
	if m.Blobs.Puts != 1 || m.Blobs.Rejected != 1 || m.Blobs.Hits != 1 {
		t.Errorf("blob counters = %+v, want puts=1 rejected=1 hits=1", m.Blobs)
	}
}

// TestBlobStoreQuarantinesDamage flips bits in a stored blob on disk:
// the next GET must 404 (never serve the damage) and move the file to
// corrupt/.
func TestBlobStoreQuarantinesDamage(t *testing.T) {
	c, ts := newTestCoord(t)
	key := strings.Repeat("ef", 32)
	if err := c.blobs.put(key, store.Frame(store.Blob.Magic, []byte("precious"))); err != nil {
		t.Fatal(err)
	}
	p := c.blobs.dir.Path(store.Blob, key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/blobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET damaged blob = %d, want 404", resp.StatusCode)
	}
	if c.blobs.dir.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", c.blobs.dir.Quarantined())
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(filepath.Dir(p)), "corrupt", filepath.Base(p))); err != nil {
		t.Errorf("damaged blob not preserved in corrupt/: %v", err)
	}
}

// TestBlobStoreReadsParentLayout is the format-compatibility proof for
// the coordinator's data dir: a blob laid down byte for byte as the
// pre-internal/store coordinator wrote it — the path and the frame are
// spelled out here, not produced by today's encoder — is served 200
// with identical bytes.
func TestBlobStoreReadsParentLayout(t *testing.T) {
	dir := t.TempDir()
	key := "3f" + strings.Repeat("0123456789abcdef", 4)[:62]
	frame := []byte("ipcp-blob-v1 21 c0b6f627\nwarmup snapshot bytes")
	p := filepath.Join(dir, "3f", key+".blob")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := startCoord(t, Options{DataDir: dir}, "").ts

	resp, err := http.Get(ts.URL + "/v1/blobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, frame) {
		t.Fatalf("GET parent-written blob = %d %q, want 200 and the stored bytes", resp.StatusCode, got)
	}
	if payload, ok := NewBlobClient(ts.URL, discardLog()).GetBlob(key); !ok || string(payload) != "warmup snapshot bytes" {
		t.Fatalf("worker-side adopt check = %q, %v", payload, ok)
	}
}

// TestBlobClientRoundTrip drives the worker-side RemoteBlobs
// implementation against a live coordinator.
func TestBlobClientRoundTrip(t *testing.T) {
	_, ts := newTestCoord(t)
	cl := NewBlobClient(ts.URL, discardLog())
	key := strings.Repeat("12", 32)
	if _, ok := cl.GetBlob(key); ok {
		t.Fatal("GetBlob hit on an empty store")
	}
	cl.PutBlob(key, []byte("shared result"))
	payload, ok := cl.GetBlob(key)
	if !ok || string(payload) != "shared result" {
		t.Fatalf("GetBlob = %q, %v; want round-tripped payload", payload, ok)
	}
}

// TestSubmitSweepBodyTooLarge extends the 413 bugfix to the new
// endpoint: grid requests are bounded too.
func TestSubmitSweepBodyTooLarge(t *testing.T) {
	_, ts := newTestCoord(t)
	huge := []byte(`{"workloads":["` + strings.Repeat("x", serve.MaxRequestBody+1024) + `"]}`)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /v1/sweeps with %d-byte body = %d, want 413", len(huge), resp.StatusCode)
	}
}

// --- registry & agent ---------------------------------------------------------

func TestWorkerRegistryLifecycle(t *testing.T) {
	c, _ := newTestCoord(t)
	w1 := c.join(t, "http://127.0.0.1:1111", 2)
	if !c.heartbeat(w1.ID) {
		t.Fatal("heartbeat for a live worker refused")
	}
	// Re-registration from the same URL supersedes the old entry.
	w2 := c.join(t, "http://127.0.0.1:1111", 2)
	if c.heartbeat(w1.ID) {
		t.Error("heartbeat for a superseded worker accepted")
	}
	if !c.heartbeat(w2.ID) {
		t.Error("heartbeat for the new incarnation refused")
	}
	// A trailing slash is the same worker: stored URLs are trimmed, so
	// the comparison must be too.
	w3 := c.join(t, "http://127.0.0.1:1111/", 2)
	if c.heartbeat(w2.ID) {
		t.Error("re-registration with a trailing slash did not supersede")
	}
	if !c.heartbeat(w3.ID) {
		t.Error("heartbeat for the trailing-slash incarnation refused")
	}
	m := c.Metrics()
	if m.Workers.Registered != 3 || m.Workers.Lost != 2 || m.Workers.Live != 1 {
		t.Errorf("worker counters = %+v, want registered=3 lost=2 live=1", m.Workers)
	}
}

func TestReaperDeclaresSilentWorkersLost(t *testing.T) {
	c, _ := newTestCoord(t)
	w := c.join(t, "http://127.0.0.1:2222", 1)
	// Observe via the worker's ctx, not heartbeat(): a heartbeat is a
	// liveness refresh and would keep the worker alive forever.
	select {
	case <-w.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("silent worker never declared lost")
	}
	if c.heartbeat(w.ID) {
		t.Error("heartbeat accepted for a reaped worker")
	}
}

// TestAgentReregisters covers the worker agent's recovery loop: when
// its incarnation is declared lost (here: forced), the next heartbeat's
// 404 makes it register again.
func TestAgentReregisters(t *testing.T) {
	c, ts := newTestCoord(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	StartAgent(ctx, ts.URL, "http://127.0.0.1:3333", 1, e2eScale, discardLog())

	firstID := waitLiveWorker(t, c, "")
	c.mu.Lock()
	c.markDeadLocked(c.workers[firstID], "test kill")
	c.mu.Unlock()

	secondID := waitLiveWorker(t, c, firstID)
	if secondID == firstID {
		t.Fatal("agent did not re-register under a fresh id")
	}
}

// waitLiveWorker polls until a live worker other than exclude exists.
func waitLiveWorker(t *testing.T, c *testCoord, exclude string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		for id, w := range c.workers {
			if !w.dead && id != exclude {
				c.mu.Unlock()
				return id
			}
		}
		c.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no live worker appeared")
	return ""
}
