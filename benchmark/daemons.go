package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape fetches a daemon's JSON /metrics.
func scrape(ctx context.Context, e *env, d *daemon) (map[string]any, error) {
	code, body, _, err := e.call(ctx, nil, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// num reads a nested numeric field of a scraped /metrics document; a
// missing field reads as 0 so a renamed counter shows up as a flat line
// rather than a crash.
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[p]
	}
	f, _ := cur.(float64)
	return f
}

// saveDaemonArtifacts keeps the daemon's own /debug/trace and /metrics
// bodies; no metric is parsed from the trace.
func saveDaemonArtifacts(ctx context.Context, e *env, d *daemon, prefix string) {
	if e.tr == nil {
		return
	}
	for _, p := range []string{"/debug/trace", "/metrics"} {
		if code, body, _, err := e.call(ctx, nil, http.MethodGet, d.base+p, nil); err == nil && code == http.StatusOK {
			os.WriteFile(filepath.Join(e.artDir, prefix+strings.ReplaceAll(p, "/", "_")+".json"), body, 0o644)
		}
	}
}

// --- distributed sweep workload ----------------------------------------

const (
	sweepWarmup  = 150_000
	sweepMeasure = 30_000
	sweepWorkers = 2
)

// sweepGrid is the 48-point grid: 4 workloads x 6 L1-D prefetchers x 2
// L2 prefetchers, which the coordinator shards into 4 warmup groups. In
// smoke mode it is 2 points in 1 group: the coordinator polls a worker
// every 150 ms, so sweep time follows the point count, not the
// instruction count.
func sweepGrid(e *env, seed int64) (body []byte, points int) {
	workloads := []string{"mcf-994", "lbm-94", "gcc-2226", "bwaves-2931"}
	l1d := []string{"", "nl", "ipstride", "ipcp", "spp", "bop"}
	l2 := []string{"", "ipcp"}
	if e.smoke {
		workloads, l1d, l2 = workloads[:1], []string{"", "ipcp"}, l2[:1]
	}
	body, _ = json.Marshal(map[string]any{"workloads": workloads, "l1d": l1d, "l2": l2, "seed": seed})
	return body, len(workloads) * len(l1d) * len(l2)
}

// sweepWorkload times POST /v1/sweeps to the merged report on a fresh
// coordinator and two fresh single-slot workers per repetition, so no
// repetition finds another's checkpoints.
type sweepWorkload struct {
	e       *env
	coord   *daemon
	workers []*daemon
	dataDir string
	points  int
}

func (w *sweepWorkload) setup(ctx context.Context, e *env, seed int64, sp *span) error {
	w.e = e
	if err := e.build(ctx, sp, "ipcpd"); err != nil {
		return err
	}
	var err error
	if w.dataDir, err = e.tempDir("coord"); err != nil {
		return err
	}
	if w.coord, err = e.startDaemon(ctx, sp, "coordinator", "-coordinator", "-data-dir", w.dataDir); err != nil {
		return err
	}
	for i := 0; i < sweepWorkers; i++ {
		cache, err := e.tempDir("worker-cache")
		if err != nil {
			return err
		}
		d, err := e.startDaemon(ctx, sp, "worker", "-worker", w.coord.base, "-workers", "1",
			"-warmup", strconv.FormatUint(e.scaled(sweepWarmup), 10),
			"-measure", strconv.FormatUint(e.scaled(sweepMeasure), 10), "-cache-dir", cache)
		if err != nil {
			return err
		}
		w.workers = append(w.workers, d)
	}
	// A worker registers after it starts listening; the sweep must not
	// start with half the fleet.
	for {
		code, body, _, err := e.call(ctx, nil, http.MethodGet, w.coord.base+"/v1/workers", nil)
		var v struct {
			Workers []struct {
				Lost bool `json:"lost"`
			} `json:"workers"`
		}
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &v) == nil {
			live := 0
			for _, wk := range v.Workers {
				if !wk.Lost {
					live++
				}
			}
			if live >= sweepWorkers {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (w *sweepWorkload) teardown() {
	for _, d := range w.workers {
		d.stop()
	}
	w.coord.stop()
	w.workers, w.coord = nil, nil
}

func (w *sweepWorkload) daemons() []*daemon { return append([]*daemon{w.coord}, w.workers...) }

func (w *sweepWorkload) cpu() float64 {
	s := 0.0
	for _, d := range w.daemons() {
		s += d.cpuSeconds()
	}
	return s
}

type sweepReport struct {
	Status string `json:"status"`
	Points []struct {
		Index  int             `json:"index"`
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	} `json:"points"`
}

// runSweep posts the grid, follows the event stream to its end and
// fetches the merged report.
func (w *sweepWorkload) runSweep(ctx context.Context, sp *span, body []byte) (*sweepReport, error) {
	e := w.e
	post := sp.child("http.POST./v1/sweeps")
	code, resp, _, err := e.call(ctx, post, http.MethodPost, w.coord.base+"/v1/sweeps", body)
	post.end()
	if err != nil {
		return nil, err
	}
	var sub struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if code != http.StatusAccepted || json.Unmarshal(resp, &sub) != nil || sub.ID == "" {
		return nil, fmt.Errorf("POST /v1/sweeps: status %d: %s", code, bytes.TrimSpace(resp))
	}
	if sub.Points != w.points {
		return nil, fmt.Errorf("POST /v1/sweeps: grid expanded to %d points, want %d", sub.Points, w.points)
	}
	// The event stream ends when the sweep does: no polling interval to
	// quantise the measured time or load the coordinator.
	follow := sp.child("http.follow./v1/sweeps/{id}/events")
	code, _, _, err = e.call(ctx, follow, http.MethodGet, w.coord.base+"/v1/sweeps/"+sub.ID+"/events", nil)
	follow.end()
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/sweeps/%s/events: status %d: %v", sub.ID, code, err)
	}
	get := sp.child("http.GET./v1/sweeps/{id}")
	code, resp, _, err = e.call(ctx, get, http.MethodGet, w.coord.base+"/v1/sweeps/"+sub.ID, nil)
	get.end()
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/sweeps/%s: status %d: %v", sub.ID, code, err)
	}
	var rep sweepReport
	if err := json.Unmarshal(resp, &rep); err != nil {
		return nil, fmt.Errorf("GET /v1/sweeps/%s: %w", sub.ID, err)
	}
	if rep.Status != "done" || len(rep.Points) != w.points {
		return nil, fmt.Errorf("sweep %s ended %q with %d points", sub.ID, rep.Status, len(rep.Points))
	}
	return &rep, nil
}

func (w *sweepWorkload) measure(ctx context.Context, e *env, seed int64, seconds float64, root *span, out *outcome) {
	body, points := sweepGrid(e, seed)
	w.points = points
	delivered := float64(points) * float64(e.scaled(sweepWarmup)+e.scaled(sweepMeasure))
	var reps []rep
	var first [][]byte // canonical result per point, from the first repetition
	var results []*simResult
	layered := false
	repeat(ctx, seconds, minReps(e), func(i int) bool {
		sp := e.repSpan(root, "sweep_grid", i)
		defer sp.end()
		if i > 0 {
			w.teardown()
			if err := out.timeSetup(func() error { return w.setup(ctx, e, seed, sp) }); err != nil {
				out.Attempted += points
				out.Failed += points - 1
				out.fail("rep %d: fresh daemons: %v", i, err)
				return false
			}
		}
		var report *sweepReport
		var err error
		var wall, cpu float64
		speed := timedAt(func() {
			cpu0 := w.cpu()
			start := time.Now()
			report, err = w.runSweep(ctx, sp, body)
			wall = time.Since(start).Seconds()
			cpu = w.cpu() - cpu0
		})
		// Two single-slot workers: the time they spend waiting to be
		// polled does not scale with CPU speed.
		r := newRep(wall, cpu, cpu, delivered, speed, sweepWorkers)
		r.traced = sp != nil

		out.Attempted += points
		if err != nil {
			out.Failed += points - 1
			out.fail("rep %d: %v", i, err)
			return ctx.Err() == nil
		}
		sort.Slice(report.Points, func(a, b int) bool { return report.Points[a].Index < report.Points[b].Index })
		canon := make([][]byte, points)
		bad := false
		for p, pt := range report.Points {
			if pt.Status != "done" {
				out.fail("rep %d point %d: status %q: %s", i, pt.Index, pt.Status, pt.Error)
				bad = true
				continue
			}
			c, err := canonicalJSON(pt.Result)
			if err == nil {
				var res *simResult
				if res, err = parseSimResult(pt.Result); err == nil && first == nil {
					results = append(results, res)
				}
			}
			if err != nil {
				out.fail("rep %d point %d: %v", i, pt.Index, err)
				bad = true
				continue
			}
			canon[p] = c
			if first != nil && !bytes.Equal(first[p], c) {
				out.fail("rep %d point %d: result differs from rep 0 for the same seed", i, pt.Index)
				bad = true
			}
		}
		if bad {
			return true
		}
		if first == nil {
			first = canon
		}
		reps = append(reps, r)
		for _, d := range w.daemons() {
			if rss := d.peakRSSMB(); rss > out.peakRSS {
				out.peakRSS = rss
			}
		}
		if r.traced && !layered {
			// Once per pass: the replay alone costs a whole sweep.
			layered = true
			w.layerMetrics(ctx, sp, body, r.rawWall, i, out)
		}
		return true
	})
	if len(reps) == 0 {
		return
	}
	out.fromReps(reps)
	out.Digest = digest(first...)
	if e.tr != nil {
		for k, v := range modelMetrics(results) {
			out.layer[k] = v
		}
		out.layer["sim.ns_per_sim_cycle"] = out.Metrics["wall_s"].Value * 1e9 / out.layer["sim.cycles"]
	}
}

// layerMetrics reads what the coordinator and workers counted during
// the sweep that just finished, then measures the blob API and the
// all-hits replay on the same (now warm) daemons. It runs after the
// repetition's time has been taken.
func (w *sweepWorkload) layerMetrics(ctx context.Context, sp *span, body []byte, wall float64, rep int, out *outcome) {
	e, l := w.e, out.layer
	l["coord.boot_ms"] = w.coord.bootS * 1000
	cm, err := scrape(ctx, e, w.coord)
	if err != nil {
		return
	}
	saveDaemonArtifacts(ctx, e, w.coord, fmt.Sprintf("sweep_grid-rep%d-coordinator", rep))
	l["coord.fanout_submitted"] = num(cm, "fanout", "submitted")
	l["coord.fanout_retries"] = num(cm, "fanout", "retries")
	l["coord.points_reassigned"] = num(cm, "points", "reassigned")
	l["coord.blob_puts"] = num(cm, "blobs", "puts")
	l["coord.blob_gets"] = num(cm, "blobs", "gets")
	l["coord.blob_hits"] = num(cm, "blobs", "hits")

	execution := 0.0
	for _, k := range []string{"experiments.executed", "experiments.memo_hits", "experiments.disk_hits",
		"experiments.forked_runs", "experiments.warmups_coalesced", "experiments.snapshot_store_bytes",
		"serve.queue_wait_s_sum", "serve.execution_s_sum", "serve.journal_appended", "serve.rejected_429", "serve.coalesced"} {
		l[k] = 0
	}
	for i, d := range w.workers {
		wm, err := scrape(ctx, e, d)
		if err != nil {
			return
		}
		saveDaemonArtifacts(ctx, e, d, fmt.Sprintf("sweep_grid-rep%d-worker%d", rep, i))
		addServeCounters(l, wm)
		execution += num(wm, "execution_s", "sum")
	}
	// The share of the two worker slots' time that was not simulation.
	l["coord.overhead_frac"] = 1 - execution/(wall*sweepWorkers)

	w.blobTimings(ctx, sp, l)

	// Re-POST the finished grid: every point is now a memo or disk hit
	// on its worker, so this is fan-out over zero-cost points.
	replay := sp.child("replay")
	start := time.Now()
	if _, err := w.runSweep(ctx, replay, body); err == nil {
		l["coord.replay_point_ms"] = time.Since(start).Seconds() * 1000 / float64(w.points)
	}
	replay.end()
}

// addServeCounters accumulates one daemon's /metrics counters into the
// per-layer map.
func addServeCounters(l map[string]float64, m map[string]any) {
	l["experiments.executed"] += num(m, "session", "executed")
	l["experiments.memo_hits"] += num(m, "session", "memo_hits")
	l["experiments.disk_hits"] += num(m, "session", "disk_hits")
	l["experiments.forked_runs"] += num(m, "session", "forked_runs")
	l["experiments.warmups_coalesced"] += num(m, "session", "warmups_coalesced")
	l["experiments.snapshot_store_bytes"] += num(m, "session", "snapshot_bytes")
	l["serve.queue_wait_s_sum"] += num(m, "queue_wait_s", "sum")
	l["serve.execution_s_sum"] += num(m, "execution_s", "sum")
	l["serve.journal_appended"] += num(m, "journal", "appended")
	l["serve.rejected_429"] += num(m, "jobs", "rejected")
	l["serve.coalesced"] += num(m, "jobs", "coalesced")
}

// blobTimings times GET and PUT of the largest blob the sweep left in
// the coordinator's store (a warmup snapshot), over the HTTP blob API.
// The body is an opaque frame the workers wrote; the harness never
// builds one.
func (w *sweepWorkload) blobTimings(ctx context.Context, sp *span, l map[string]float64) {
	e := w.e
	var key string
	var size int64
	filepath.WalkDir(w.dataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".blob") {
			return nil
		}
		if info, err := d.Info(); err == nil && info.Size() > size {
			key, size = strings.TrimSuffix(filepath.Base(path), ".blob"), info.Size()
		}
		return nil
	})
	if key == "" {
		return
	}
	bsp := sp.child("blobs").set("bytes", size)
	defer bsp.end()
	url := w.coord.base + "/v1/blobs/" + key
	var gets, puts []float64
	var frame []byte
	for i := 0; i < 20; i++ {
		code, body, dur, err := e.call(ctx, bsp, http.MethodGet, url, nil)
		if err != nil || code != http.StatusOK {
			return
		}
		frame = body
		gets = append(gets, dur.Seconds()*1000)
	}
	for i := 0; i < 20; i++ {
		code, _, dur, err := e.call(ctx, bsp, http.MethodPut, url, frame)
		if err != nil || (code != http.StatusOK && code != http.StatusCreated) {
			return
		}
		puts = append(puts, dur.Seconds()*1000)
	}
	l["coord.blob_get_ms_p50"] = median(gets)
	l["coord.blob_put_ms_p50"] = median(puts)
}

// --- HTTP run workloads ------------------------------------------------

const (
	serveWarmup  = 2_000
	serveMeasure = 8_000
	// repeatSpecs is how many distinct runs serve_repeat computes during
	// set-up and then keeps asking for.
	repeatSpecs = 64
	// digestRuns is how many of the first runs feed model.digest and
	// the model metrics: enough to be a sample, few enough that every
	// run of the benchmark completes them whatever the host speed.
	digestRuns = 16
	// pollInterval is the client's wait between GETs of an unfinished
	// job; it bounds how late a finished job is noticed.
	pollInterval = time.Millisecond
)

// serveWorkload drives one ipcpd with closed-loop clients: POST
// /v1/runs, then GET the job until it is terminal. serve_cold gives
// every run a new seed; serve_repeat repeats runs computed in set-up,
// which the daemon answers by coalescing the POST onto the finished job
// (no new job, no journal record, no queue, no simulation).
type serveWorkload struct {
	name   string
	repeat bool
	d      *daemon

	populated []json.RawMessage // serve_repeat: the result of each spec
}

func runSeed(seed int64, i int) int64 {
	s := seed*1_000_000 + int64(i) + 1
	if s == 0 {
		s = 1 // 0 would mean "the daemon's default seed"
	}
	return s
}

func runBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"workloads":["lbm-94"],"l1d":"ipcp","l2":"ipcp","seed":%d}`, seed))
}

func (w *serveWorkload) daemonArgs(e *env, journal bool) ([]string, error) {
	cache, err := e.tempDir("serve-cache")
	if err != nil {
		return nil, err
	}
	args := []string{"-workers", "2", "-cache-dir", cache,
		"-warmup", strconv.FormatUint(e.scaled(serveWarmup), 10),
		"-measure", strconv.FormatUint(e.scaled(serveMeasure), 10)}
	if journal {
		dir, err := e.tempDir("serve-journal")
		if err != nil {
			return nil, err
		}
		args = append(args, "-journal-dir", dir)
	}
	return args, nil
}

func (w *serveWorkload) setup(ctx context.Context, e *env, seed int64, sp *span) error {
	if err := e.build(ctx, sp, "ipcpd", "ipcpsim"); err != nil {
		return err
	}
	args, err := w.daemonArgs(e, true)
	if err != nil {
		return err
	}
	if w.d, err = e.startDaemon(ctx, sp, "ipcpd", args...); err != nil {
		return err
	}
	if !w.repeat {
		return nil
	}
	// The runs serve_repeat will keep asking for.
	psp := sp.child("setup.populate")
	defer psp.end()
	n := int(e.scaled(repeatSpecs))
	w.populated = make([]json.RawMessage, n)
	for i := 0; i < n; i++ {
		r := w.oneRun(ctx, e, psp, runBody(runSeed(seed, i)))
		if r.err != nil {
			return fmt.Errorf("populating run %d: %w", i, r.err)
		}
		if _, err := parseSimResult(r.result); err != nil {
			return fmt.Errorf("populating run %d: %w", i, err)
		}
		w.populated[i] = r.result
	}
	return nil
}

func (w *serveWorkload) teardown() {
	w.d.stop()
	w.d = nil
}

// runRecord is one HTTP run as the client saw it.
type runRecord struct {
	latency time.Duration // POST sent to terminal job body received
	submit  time.Duration // POST sent to 202 received
	getMS   []float64     // each GET of the job, in ms
	result  json.RawMessage
	err     error
}

// oneRun submits one run and polls its job to a terminal state.
func (w *serveWorkload) oneRun(ctx context.Context, e *env, parent *span, body []byte) (r runRecord) {
	sp := parent.child("run")
	defer sp.end()
	start := time.Now()
	defer func() { r.latency = time.Since(start) }()
	code, resp, dur, err := e.call(ctx, sp, http.MethodPost, w.d.base+"/v1/runs", body)
	r.submit = dur
	if err != nil {
		r.err = err
		return r
	}
	var sub struct {
		ID string `json:"id"`
	}
	if (code != http.StatusAccepted && code != http.StatusOK) || json.Unmarshal(resp, &sub) != nil || sub.ID == "" {
		r.err = fmt.Errorf("POST /v1/runs: status %d: %s", code, bytes.TrimSpace(resp))
		return r
	}
	poll := sp.child("http.poll")
	defer poll.end()
	for {
		code, resp, dur, err := e.call(ctx, poll, http.MethodGet, w.d.base+"/v1/runs/"+sub.ID, nil)
		if err != nil {
			r.err = err
			return r
		}
		r.getMS = append(r.getMS, dur.Seconds()*1000)
		var job struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if code != http.StatusOK || json.Unmarshal(resp, &job) != nil {
			r.err = fmt.Errorf("GET /v1/runs/%s: status %d", sub.ID, code)
			return r
		}
		switch job.Status {
		case "queued", "running":
			time.Sleep(pollInterval)
		case "done":
			if len(job.Result) == 0 {
				r.err = fmt.Errorf("job %s is done but carries no result", sub.ID)
			}
			r.result = job.Result
			return r
		default:
			r.err = fmt.Errorf("job %s ended %q: %s", sub.ID, job.Status, job.Error)
			return r
		}
	}
}

func (w *serveWorkload) measure(ctx context.Context, e *env, seed int64, seconds float64, root *span, out *outcome) {
	// Windows are the repetitions of a serving workload: the client runs
	// closed-loop for one window, and the host speed is taken between
	// windows, so each window's figures are scaled by the speed that held
	// while it ran.
	window := 250 * time.Millisecond
	if q := time.Duration(seconds * float64(time.Second) / 8); q < window {
		window = q
	}
	before, err := scrape(ctx, e, w.d)
	if err != nil {
		out.Attempted++
		out.fail("%v", err)
		return
	}
	instrPerRun := float64(e.scaled(serveWarmup) + e.scaled(serveMeasure))

	phase := e.tr.start(root, "phase")
	if phase != nil {
		phase.Rep = w.name
	}
	var reps []rep
	var sample []json.RawMessage // the first digestRuns results
	var winLat, plain, traced, submits, gets []float64
	next := 0 // run index
	repeat(ctx, seconds, minReps(e), func(i int) bool {
		isTraced := e.tracedRep(i)
		var lat []float64
		var wall, cpu, hostCPU float64 // hostCPU: daemon and client together
		speed := timedAt(func() {
			cpu0, self0 := w.d.cpuSeconds(), selfCPU()
			start := time.Now()
			for ctx.Err() == nil && time.Since(start) < window {
				k := next
				next++
				if w.repeat {
					k %= len(w.populated)
				}
				rec := w.oneRun(ctx, e, phase, runBody(runSeed(seed, k)))
				out.Attempted++
				if err := w.verify(e, k, rec); err != nil {
					out.fail("run %d: %v", next-1, err)
					continue
				}
				lat = append(lat, rec.latency.Seconds())
				if e.tr != nil {
					submits = append(submits, rec.submit.Seconds()*1000)
					gets = append(gets, rec.getMS...)
				}
				if !w.repeat && len(sample) < digestRuns {
					sample = append(sample, rec.result)
				}
			}
			wall = time.Since(start).Seconds()
			cpu = w.d.cpuSeconds() - cpu0
			hostCPU = cpu + selfCPU() - self0
		})
		if len(lat) == 0 {
			return ctx.Err() == nil
		}
		// Client and daemon share the host's CPUs, and both are on the
		// critical path of a closed loop.
		r := newRep(wall, cpu, hostCPU, float64(len(lat))*instrPerRun, speed, e.nproc)
		for j := range lat {
			lat[j] *= r.scale
		}
		out.cpuTotal += cpu
		out.wallTotal += wall
		r.cpu /= float64(len(lat)) // per run, not per window
		reps = append(reps, r)
		winLat = append(winLat, median(lat))
		if isTraced {
			traced = append(traced, lat...)
		} else {
			plain = append(plain, lat...)
		}
		return true
	})
	e.tr.resume()
	phase.end()
	after, err := scrape(ctx, e, w.d)
	if err != nil {
		out.Attempted++
		out.fail("%v", err)
		return
	}
	if w.repeat {
		sample = w.populated[:min(len(w.populated), digestRuns)]
	} else {
		w.crossCheck(ctx, e, root, seed, out)
	}
	if len(reps) == 0 {
		return
	}

	// The digest and the model metrics cover the first digestRuns runs:
	// a fixed set for a given seed, whatever the host speed.
	var canon [][]byte
	var results []*simResult
	for _, doc := range sample {
		c, _ := canonicalJSON(doc)
		res, _ := parseSimResult(doc)
		canon, results = append(canon, c), append(results, res)
	}
	out.Digest = digest(canon...)
	for k, v := range modelMetrics(results) {
		out.layer[k] = v
	}

	var rates, cpus, speeds []float64
	for _, r := range reps {
		rates = append(rates, r.instr/r.wall)
		cpus = append(cpus, r.cpu)
		speeds = append(speeds, r.speed)
	}
	latencies := append(append([]float64{}, plain...), traced...)
	out.Metrics["wall_s"] = metric{Value: median(latencies), Unit: "s", Samples: winLat}
	out.setSamples("sim_instr_per_s", "instr/s", rates)
	out.setSamples("cpu_s", "s", cpus)
	out.noteSpeed(speeds)
	out.peakRSS = w.d.peakRSSMB()
	out.Notes = append(out.Notes, fmt.Sprintf("%d runs by one closed-loop client in %d windows of %s; wall_s is the median run latency over all runs (its samples are per-window medians), cpu_s the daemon's CPU per run",
		len(latencies), len(reps), window))

	if e.tr == nil {
		return
	}
	l := out.layer
	saveDaemonArtifacts(ctx, e, w.d, w.name)
	delta, sub := map[string]float64{}, map[string]float64{}
	addServeCounters(delta, after)
	addServeCounters(sub, before)
	for k, v := range delta {
		l[k] = v - sub[k]
	}
	l["serve.submit_ms_p50"] = median(submits)
	l["serve.get_job_ms_p50"] = median(gets)
	ms := make([]float64, len(latencies))
	for i, s := range latencies {
		ms[i] = s * 1000
	}
	// A percentile is reported only with at least ten samples beyond it.
	if hp := highestPercentile(len(ms)); hp >= 90 {
		l["serve.run_latency_p90_ms"] = percentile(ms, 90)
		if hp >= 99 {
			l["serve.run_latency_p99_ms"] = percentile(ms, 99)
		}
	}
	l["host.trace_overhead_frac"] = overhead(plain, traced)
	if cycles := l["sim.cycles"]; cycles > 0 {
		// sim.cycles covers the digest sample; scale it to every run.
		l["sim.ns_per_sim_cycle"] = out.wallTotal * 1e9 / (cycles / float64(len(results)) * float64(len(latencies)))
	}
	w.noJournalSubmits(ctx, e, root, seed, l)
}

// verify checks one finished run: serve_repeat's answer must equal the
// first computation of spec k; serve_cold's must be a consistent result
// of the right size.
func (w *serveWorkload) verify(e *env, k int, rec runRecord) error {
	if rec.err != nil {
		return rec.err
	}
	if w.repeat {
		if want := w.populated[k]; !bytes.Equal(rec.result, want) {
			a, _ := canonicalJSON(rec.result)
			b, _ := canonicalJSON(want)
			if !bytes.Equal(a, b) {
				return errors.New("repeated result differs from the first computation")
			}
		}
		return nil
	}
	res, err := parseSimResult(rec.result)
	if err == nil && (res.Instructions != e.scaled(serveMeasure) || res.Cores != 1) {
		err = fmt.Errorf("result has %d cores x %d instructions, want 1 x %d", res.Cores, res.Instructions, e.scaled(serveMeasure))
	}
	return err
}

// crossCheck holds the daemon's answer for run 0 against ipcpsim's for
// the same workload, sizes and seed: the serving stack must not change
// what the simulator computes.
func (w *serveWorkload) crossCheck(ctx context.Context, e *env, sp *span, seed int64, out *outcome) {
	r := w.oneRun(ctx, e, sp, runBody(runSeed(seed, 0)))
	cli := e.runProc(ctx, sp, "ipcpsim", "-workload", "lbm-94", "-l1", "ipcp", "-l2", "ipcp",
		"-warmup", strconv.FormatUint(e.scaled(serveWarmup), 10),
		"-measure", strconv.FormatUint(e.scaled(serveMeasure), 10),
		"-seed", strconv.FormatInt(runSeed(seed, 0), 10), "-json")
	out.Attempted++
	if r.err != nil || cli.Err != nil {
		out.fail("cross-check: http: %v; cli: %v", r.err, cli.Err)
		return
	}
	a, errA := canonicalJSON(r.result)
	b, errB := canonicalJSON(cli.Stdout)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		out.fail("cross-check: ipcpd and ipcpsim disagree on lbm-94 seed %d", runSeed(seed, 0))
	}
}

// noJournalSubmits boots a second daemon without -journal-dir and times
// POST to 202 on it: the difference to serve.submit_ms_p50 is what the
// write-ahead journal's fsync costs a submission.
func (w *serveWorkload) noJournalSubmits(ctx context.Context, e *env, root *span, seed int64, l map[string]float64) {
	sp := root.child("nojournal")
	defer sp.end()
	args, err := w.daemonArgs(e, false)
	if err != nil {
		return
	}
	d, err := e.startDaemon(ctx, sp, "ipcpd-nojournal", args...)
	if err != nil {
		return
	}
	defer d.stop()
	probe := &serveWorkload{d: d}
	var submits []float64
	for i := 0; i < int(e.scaled(200)); i++ {
		// Seeds beyond any the main phase used, so every run is cold.
		r := probe.oneRun(ctx, e, sp, runBody(runSeed(seed, 900_000+i)))
		if r.err != nil {
			return
		}
		submits = append(submits, r.submit.Seconds()*1000)
	}
	l["serve.submit_nojournal_ms_p50"] = median(submits)
}
