// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI). Each experiment is registered under the ID used in
// DESIGN.md (fig1, fig7, ..., tab4, sens-dram, ...) and produces a
// Table that cmd/experiments renders as markdown.
//
// Simulations are deterministic, so a Session memoizes results across
// experiments (the no-prefetching baselines are shared by most
// figures) and fans independent runs out across CPUs.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipcp/internal/core" // also registers the "ipcp" prefetcher
	"ipcp/internal/prefetch"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// Scale sets how much simulation an experiment run buys. The paper
// simulates 50M warmup + 200M measured instructions per trace; the
// synthetic workloads reach steady state much sooner, so the default
// scales are far smaller (see EXPERIMENTS.md).
type Scale struct {
	Warmup  uint64
	Measure uint64
	// MaxTraces caps the workload list per experiment (0 = all).
	MaxTraces int
	// Mixes is the number of heterogeneous multi-core mixes.
	Mixes int
	// Cores for the multi-core experiments' "small" configuration.
	Seed int64
}

// Quick is the bench-friendly scale.
var Quick = Scale{Warmup: 20_000, Measure: 60_000, MaxTraces: 8, Mixes: 4, Seed: 1}

// Default is the scale used to produce EXPERIMENTS.md.
var Default = Scale{Warmup: 50_000, Measure: 200_000, Mixes: 16, Seed: 1}

// Table is one experiment's result: rows of labelled values.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	// Notes records the paper's reported shape next to ours.
	Notes []string
}

// Row is one table line.
type Row struct {
	Label  string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Find returns the row with the given label.
func (t *Table) Find(label string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(append([]string{""}, t.Columns...), " | ") + " |\n")
	b.WriteString(strings.Repeat("|---", len(t.Columns)+1) + "|\n")
	for _, r := range t.Rows {
		cells := make([]string, 0, len(r.Values)+1)
		cells = append(cells, r.Label)
		for _, v := range r.Values {
			if math.IsNaN(v) {
				// A failed run degrades to an n/a cell (see Notes for
				// the fault) instead of poisoning the whole table.
				cells = append(cells, "n/a")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// Experiment reproduces one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports, for EXPERIMENTS.md.
	Paper string
	Run   func(s *Session) (*Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// --- Session: memoized, parallel simulation runner -----------------------

// RunSpec is the one description of a simulation: the body of POST
// /v1/runs, a sweep point, a journal record and an experiment's grid
// entry are all this struct, and a run's identity (Key, WarmupKey) is
// derived from its content, never typed beside it.
type RunSpec struct {
	Workloads []string `json:"workloads"`       // one per core
	Cores     int      `json:"cores,omitempty"` // 0 = len(Workloads)

	// Prefetcher names per level ("" = none; "<name>@l2" learns here and
	// fills at the L2, see prefetch.New).
	L1D string `json:"l1d,omitempty"`
	L2  string `json:"l2,omitempty"`
	LLC string `json:"llc,omitempty"`
	// IPCPL1, when set, is the L1-D prefetcher: an IPCP with this
	// configuration (nil = whatever L1D names; L1D must be "" or "ipcp").
	IPCPL1 *core.L1Config `json:"ipcp_l1,omitempty"`

	// System knobs (zero values = PaperConfig defaults).
	LLCRepl        string  `json:"llc_repl,omitempty"`
	DRAMGBps       float64 `json:"dram_gbps,omitempty"`
	L1PQ           int     `json:"l1_pq,omitempty"`
	L1MSHR         int     `json:"l1_mshr,omitempty"`
	L1DWays        int     `json:"l1d_ways,omitempty"` // 8 → 32KB L1D
	L2Sets         int     `json:"l2_sets,omitempty"`
	LLCSetsPerCore int     `json:"llc_sets_per_core,omitempty"`

	Seed int64 `json:"seed,omitempty"` // 0 = the session scale's seed
}

// normalised returns the spec with every spelling of one simulation
// folded onto one: an IPCP variant always names l1d "ipcp", a variant
// equal to the paper's configuration IS the registered "ipcp", "none"
// is "", and a core count that restates the workload count is 0.
//
// It never turns a spec Validate refuses into one it accepts: a served
// job is found by Key before its submission is validated, so equal keys
// must mean equal validity. That is why a variant beside another l1d
// ("none" included) is left as written.
func (r RunSpec) normalised() RunSpec {
	switch {
	case r.IPCPL1 == nil:
		if r.L1D == "none" {
			r.L1D = ""
		}
	case r.L1D == "" || r.L1D == "ipcp":
		r.L1D = "ipcp"
		if reflect.DeepEqual(*r.IPCPL1, core.DefaultL1Config()) {
			r.IPCPL1 = nil
		}
	}
	for _, name := range []*string{&r.L2, &r.LLC} {
		if *name == "none" {
			*name = ""
		}
	}
	if r.Cores == len(r.Workloads) {
		r.Cores = 0
	}
	return r
}

// canonical renders a normalised spec as its identity: the JSON a client
// would POST to ask for it.
func (r RunSpec) canonical() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Only a NaN/Inf knob, which Validate refuses; never let two such
		// specs share a result by accident.
		return fmt.Sprintf("unkeyable(%v):%+v", err, r)
	}
	return string(b)
}

// Key is the spec's memoization identity: two specs with equal keys
// describe the same simulation. The serve layer uses it to coalesce
// identical submissions onto one job.
func (r RunSpec) Key() string { return r.normalised().canonical() }

// maxCores and the knob ceilings below bound what one request may
// allocate; the paper's largest system (8 cores, 16K-set LLC slices in
// the weighted-speedup runs) sits well inside them.
const maxCores = 16

// Validate rejects a spec the simulator would only fail on later — or
// allocate the host for — so bad input costs a 400 instead of a queued
// failing job. POST /v1/runs and every sweep point pass through it.
func (r RunSpec) Validate() error {
	if len(r.Workloads) == 0 || len(r.Workloads) > maxCores {
		return fmt.Errorf("workloads must name 1..%d traces, got %d", maxCores, len(r.Workloads))
	}
	for _, w := range r.Workloads {
		if _, err := workload.Named(w); err != nil {
			return err
		}
	}
	if r.Cores != 0 && r.Cores != len(r.Workloads) {
		return fmt.Errorf("cores (%d) must be 0 or match the workload count (%d)", r.Cores, len(r.Workloads))
	}
	for _, p := range []string{r.L1D, r.L2, r.LLC} {
		if err := prefetch.Check(p); err != nil {
			return err
		}
	}
	if r.IPCPL1 != nil {
		if r.L1D != "" && r.L1D != "ipcp" {
			return fmt.Errorf("ipcp_l1 configures the IPCP at the L1-D; l1d must be \"ipcp\" or empty, not %q", r.L1D)
		}
		if err := r.IPCPL1.Validate(); err != nil {
			return err
		}
	}
	for _, k := range []struct {
		name   string
		v, max int
	}{
		{"l1_pq", r.L1PQ, 1 << 10}, {"l1_mshr", r.L1MSHR, 1 << 10}, {"l1d_ways", r.L1DWays, 1 << 6},
		{"l2_sets", r.L2Sets, 1 << 15}, {"llc_sets_per_core", r.LLCSetsPerCore, 1 << 15},
	} {
		if k.v < 0 || k.v > k.max {
			return fmt.Errorf("%s = %d, want 0..%d", k.name, k.v, k.max)
		}
	}
	if !(r.DRAMGBps >= 0 && r.DRAMGBps <= 1024) {
		return fmt.Errorf("dram_gbps = %v, want 0..1024", r.DRAMGBps)
	}
	// Geometry (power-of-two sets and core count, known policy names) is
	// the simulator's own rule; ask it.
	return r.Config(1).Validate()
}

// PanicError wraps a panic recovered in a simulation worker: the
// panicking run becomes an error row instead of killing the whole
// experiment session.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("run panicked: %v", e.Value) }

// RunFault records one degraded (failed but non-fatal) simulation run.
type RunFault struct {
	Spec      string // memoization key of the failed run
	Workloads []string
	Err       error
}

// fatal reports whether err must abort the session (cancellation)
// rather than degrade to an n/a cell (everything else: panics, corrupt
// traces, cycle-limit blowups, bad configs).
func fatal(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// outcome is one memoized run: a result or its (non-fatal) error.
// Errors are memoized too, so a failing spec reports the same fault
// everywhere it appears instead of recomputing the failure.
//
// An outcome enters the cache the moment a caller commits to running
// its spec, before the simulation starts: done is closed once res/err
// are valid, and every later caller of the same spec waits on it
// instead of redundantly executing (single-flight). A fatal (cancelled
// or deadline-exceeded) outcome is removed from the cache before done
// closes, so waiters whose own context is still live retry as the new
// leader rather than inheriting an interruption that wasn't theirs.
type outcome struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// SessionStats counts how the session's Run calls were satisfied. It is
// also the "session" object of ipcpd's GET /metrics, so the JSON names
// and the prom tags (the Prometheus series, see telemetry.WritePrometheus)
// are API.
type SessionStats struct {
	// Executed is how many simulations actually ran. MemoHits were
	// served from the in-memory memo cache, DiskHits loaded from the disk
	// checkpoint cache. Coalesced callers found an identical run already
	// in flight and waited for its outcome instead of executing
	// (single-flight). Faults is the number of degraded (failed but
	// non-fatal) runs.
	Executed  int `json:"executed" prom:"ipcpd_session_runs_total{disposition=executed},counter" help:"Session run dispositions underneath the job layer."`
	MemoHits  int `json:"memo_hits" prom:"ipcpd_session_runs_total{disposition=memo_hit},counter"`
	DiskHits  int `json:"disk_hits" prom:"ipcpd_session_runs_total{disposition=disk_hit},counter"`
	Coalesced int `json:"coalesced" prom:"ipcpd_session_runs_total{disposition=coalesced},counter"`
	Faults    int `json:"faults" prom:"ipcpd_session_runs_total{disposition=fault},counter"`
	// StoreFailures counts disk-checkpoint writes that failed. Store
	// failures are deliberately non-fatal (the cache degrades to a
	// no-op) but surfaced here so a dying disk is visible.
	StoreFailures int `json:"store_failures" prom:"ipcpd_checkpoint_store_failures_total,counter" help:"Checkpoint writes that failed (results still served from memory)."`
	// Quarantined counts corrupt checkpoint files detected on load and
	// moved to the cache's corrupt/ subdirectory instead of decoded.
	Quarantined int `json:"quarantined" prom:"ipcpd_checkpoints_quarantined,counter" help:"Corrupt checkpoint files detected on load and moved to the corrupt/ subdirectory."`
	// Abandoned counts concurrency slots reclaimed from cancelled runs
	// that failed to unwind within the abandon grace (simulations
	// wedged beyond cooperative cancellation).
	Abandoned int `json:"abandoned" prom:"ipcpd_sim_runs_abandoned_total,counter" help:"Cancelled simulations abandoned after failing to unwind within the grace; their concurrency slots were reclaimed."`

	// PendingSaves is a gauge: checkpoints and snapshot spills whose run
	// has returned but whose write has not finished (see Flush).
	// BuildsRecycled counts simulated systems this session released
	// once their run had returned, handing their cache arrays to the
	// next build (sim.System.Release).
	PendingSaves   int `json:"pending_saves" prom:"ipcpd_checkpoint_saves_pending,gauge" help:"Results and warmup spills published to their jobs but not yet on disk (write-behind)."`
	BuildsRecycled int `json:"builds_recycled" prom:"ipcpd_sim_builds_recycled_total,counter" help:"Simulated systems whose cache arrays were handed back for the next build."`

	// Shared-warmup (RunShared/RunSweep) dispositions.
	//
	// SnapshotMemHits counts forks served from a resident warmup
	// snapshot; SnapshotDiskHits from a disk spill; SnapshotMisses are
	// warmups that actually simulated. SnapshotBytes is the total
	// spilled to disk. WarmupsCoalesced counts callers that waited on
	// an in-flight warmup instead of running their own. ForkedRuns
	// counts measure phases that ran from a snapshot (the fallback
	// cold path counts under Executed only).
	SnapshotMemHits  int   `json:"snapshot_mem_hits" prom:"ipcpd_snapshot_store_total{disposition=mem_hit},counter" help:"Shared-warmup snapshot dispositions: forks served from memory or the disk spill, and warmups that had to simulate."`
	SnapshotDiskHits int   `json:"snapshot_disk_hits" prom:"ipcpd_snapshot_store_total{disposition=disk_hit},counter"`
	SnapshotMisses   int   `json:"snapshot_misses" prom:"ipcpd_snapshot_store_total{disposition=miss},counter"`
	SnapshotBytes    int64 `json:"snapshot_bytes" prom:"ipcpd_snapshot_bytes_total,counter" help:"Warmup snapshot bytes spilled to the disk cache."`
	WarmupsCoalesced int   `json:"warmups_coalesced" prom:"ipcpd_warmups_coalesced_total,counter" help:"Run jobs that reused an in-flight shared warmup instead of running their own."`
	ForkedRuns       int   `json:"forked_runs" prom:"ipcpd_forked_runs_total,counter" help:"Measure phases forked from a warmup snapshot."`

	// RemoteBlobHits counts local cache misses satisfied from the
	// shared remote blob store (checkpoints and warmup spills alike);
	// RemoteBlobPuts counts local writes pushed to it.
	RemoteBlobHits int `json:"remote_blob_hits" prom:"ipcpd_remote_blob_total{op=hit},counter" help:"Shared blob-store traffic: local misses served remotely and local writes pushed."`
	RemoteBlobPuts int `json:"remote_blob_puts" prom:"ipcpd_remote_blob_total{op=put},counter"`

	// SteppedCycles and JumpedCycles total the scheduler self-profile
	// (sim.EngineStats) of every measured phase this session executed:
	// simulated cycles on which some component was clocked, and cycles
	// crossed in a jump because none was due. Recalled results (memo,
	// disk) simulated nothing and add nothing.
	SteppedCycles uint64 `json:"sim_stepped_cycles" prom:"ipcpd_sim_cycles_total{mode=stepped},counter" help:"Simulated cycles of executed measure phases: stepped (some component clocked) or jumped (none due)."`
	JumpedCycles  uint64 `json:"sim_jumped_cycles" prom:"ipcpd_sim_cycles_total{mode=jumped},counter"`
}

// Session memoizes simulation results for one Scale.
type Session struct {
	Scale Scale

	ctx  context.Context
	disk *diskCache
	log  *slog.Logger

	mu     sync.Mutex
	cache  map[string]*outcome
	faults []RunFault
	stats  SessionStats // the counters the session owns; Stats adds the rest
	sem    chan struct{}

	// saves persists results and snapshot spills behind the runs that
	// produced them (see writebehind.go).
	saves writeBehind

	// Shared-warmup snapshot store (see sweep.go): one single-flight
	// entry per warmup identity, with a residency list bounding how
	// many snapshots stay in memory.
	snapMu       sync.Mutex
	snaps        map[string]*snapEntry
	snapResident []string

	// testWarmupErr, when set (tests only), injects a non-fatal
	// snapshot failure for matching specs so the shared-warmup
	// cold-fallback path can be exercised deterministically.
	testWarmupErr func(RunSpec) error
}

// NewSession returns a Session running at the given scale.
func NewSession(s Scale) *Session {
	return NewSessionContext(context.Background(), s)
}

// NewSessionContext returns a Session whose runs are cancelled when ctx
// is: in-flight simulations stop within a few thousand cycles, queued
// ones never start, and already-memoized results stay available.
func NewSessionContext(ctx context.Context, s Scale) *Session {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return &Session{
		Scale: s,
		ctx:   ctx,
		log:   slog.Default(),
		cache: make(map[string]*outcome),
		snaps: make(map[string]*snapEntry),
		sem:   make(chan struct{}, n),
	}
}

// SetLogger routes the session's operational warnings (checkpoint
// store failures, quarantined entries) to log; the default is
// slog.Default(). Call before SetCacheDir.
func (s *Session) SetLogger(log *slog.Logger) {
	if log != nil {
		s.log = log
	}
}

// SetCacheDir attaches a persistent result cache rooted at dir
// (created if missing): every memoized result is also checkpointed to
// disk — behind the run that produced it, see Flush — and later
// sessions, including a rerun after a crash or SIGINT, resume from it
// instead of recomputing. Results are keyed by workload +
// configuration + scale, so a cache directory can be shared across
// scales safely.
func (s *Session) SetCacheDir(dir string) error {
	d, err := newDiskCache(dir, s.log)
	if err != nil {
		return err
	}
	s.disk = d
	return nil
}

// SetRemoteBlobs attaches a shared second-level blob store (typically
// the coordinator's /v1/blobs service) behind the local disk cache:
// local misses — result checkpoints and warmup-snapshot spills alike —
// fall through to it, and every local write is pushed to it. Requires
// a cache directory (the local tier is where verified remote payloads
// are adopted); call after SetCacheDir.
func (s *Session) SetRemoteBlobs(r RemoteBlobs) error {
	if s.disk == nil {
		return errors.New("experiments: SetRemoteBlobs requires SetCacheDir first")
	}
	s.disk.remote = r
	return nil
}

// Faults returns the degraded runs recorded so far (rendered as n/a
// cells in tables).
func (s *Session) Faults() []RunFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RunFault(nil), s.faults...)
}

// Executed returns how many simulations actually ran (memoization and
// disk-cache hits excluded); tests use it to prove resume works.
func (s *Session) Executed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Executed
}

// Stats returns the session's run-disposition counters; the serve
// layer surfaces them on /metrics.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	st := s.stats
	st.Faults = len(s.faults)
	s.mu.Unlock()
	st.PendingSaves = s.saves.depth()
	if s.disk != nil {
		st.StoreFailures = int(s.disk.storeFails.Load())
		st.Quarantined = int(s.disk.local.Quarantined())
		st.RemoteBlobHits = int(s.disk.remoteHits.Load())
		st.RemoteBlobPuts = int(s.disk.remotePuts.Load())
	}
	return st
}

// Run executes (or recalls) one simulation.
func (s *Session) Run(spec RunSpec) (*sim.Result, error) {
	return s.RunContext(context.Background(), spec)
}

// RunContext executes (or recalls) one simulation. ctx bounds this
// call only — a per-job deadline from the serve layer, say — and is
// honored alongside the session's own context: the run is cancelled
// when either one is. Concurrent calls with the same spec key are
// single-flight: the first caller executes and the rest wait for its
// outcome, so N identical submissions cost one simulation.
//
// A telemetry.SpanTracer in ctx gets one "session.run" span per call
// whose "outcome" attribute records how the run was satisfied —
// memo-hit, coalesced, disk-hit or executed — plus admission and
// checkpoint child spans on the paths that have them.
func (s *Session) RunContext(ctx context.Context, spec RunSpec) (*sim.Result, error) {
	return s.run(ctx, spec, false)
}

// run is the single-flight loop behind RunContext and RunSharedContext.
// The two methodologies differ only in shared: it keeps their results
// apart (the "sw|" memo-key prefix and diskKeyShared), selects how
// execute simulates, and marks the span.
func (s *Session) run(ctx context.Context, spec RunSpec, shared bool) (*sim.Result, error) {
	k, diskKey := spec.Key(), s.diskKey
	ctx, span := telemetry.StartSpan(ctx, "session.run")
	defer span.End()
	if shared {
		k, diskKey = "sw|"+k, s.diskKeyShared
		span.SetAttr("warmup_shared", "true")
	}
	for {
		s.mu.Lock()
		if o, ok := s.cache[k]; ok {
			select {
			case <-o.done: // resolved: a plain memo hit
				s.stats.MemoHits++
				s.mu.Unlock()
				span.SetAttr("outcome", "memo-hit")
				return o.res, o.err
			default: // in flight: coalesce onto the leader
			}
			s.stats.Coalesced++
			s.mu.Unlock()
			span.SetAttr("outcome", "coalesced")
			select {
			case <-o.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-s.ctx.Done():
				return nil, s.ctx.Err()
			}
			if o.err != nil && fatal(o.err) {
				// The leader was interrupted and its entry removed; our
				// own context may still be live, so retry as the new
				// leader instead of inheriting the interruption.
				if err := firstError(ctx.Err(), s.ctx.Err()); err != nil {
					return nil, err
				}
				continue
			}
			return o.res, o.err
		}
		o := &outcome{done: make(chan struct{})}
		s.cache[k] = o
		s.mu.Unlock()
		return s.lead(ctx, spec, k, diskKey(k), o, span, shared)
	}
}

// lead resolves an in-flight cache entry as its leader: it loads or
// executes the run, publishes the outcome, wakes every coalesced
// waiter, and only then queues the checkpoint write behind them.
// Exactly one goroutine leads each in-flight entry. span is the
// caller's session.run span; lead stamps the outcome onto it. dk is the
// disk-cache address for this entry and shared the methodology execute
// simulates it under.
func (s *Session) lead(ctx context.Context, spec RunSpec, k, dk string, o *outcome, span *telemetry.ActiveSpan,
	shared bool) (*sim.Result, error) {
	resolve := func(res *sim.Result, err error) (*sim.Result, error) {
		s.mu.Lock()
		o.res, o.err = res, err
		switch {
		case err != nil && fatal(err):
			// Cancellation is not memoized: a resumed session must
			// re-run the interrupted spec, not replay the interruption.
			delete(s.cache, k)
		case err != nil:
			s.faults = append(s.faults, RunFault{Spec: k, Workloads: spec.Workloads, Err: err})
		}
		s.mu.Unlock()
		close(o.done)
		return res, err
	}

	if err := firstError(ctx.Err(), s.ctx.Err()); err != nil {
		return resolve(nil, err)
	}
	if s.disk != nil {
		_, lsp := telemetry.StartSpan(ctx, "checkpoint.load")
		res, ok := s.disk.load(dk, k)
		lsp.SetAttr("hit", strconv.FormatBool(ok))
		lsp.End()
		if ok {
			s.mu.Lock()
			s.stats.DiskHits++
			s.mu.Unlock()
			span.SetAttr("outcome", "disk-hit")
			return resolve(res, nil)
		}
	}
	span.SetAttr("outcome", "executed")
	res, err := s.execute(ctx, spec, shared)
	if err != nil {
		span.SetAttr("error", err.Error())
		return resolve(nil, err)
	}
	s.mu.Lock()
	s.stats.SteppedCycles += res.Engine.SteppedCycles
	s.stats.JumpedCycles += res.Engine.JumpedCycles
	s.mu.Unlock()
	resolve(res, nil)
	if s.disk != nil {
		// The save span is a child of session.run but starts after it
		// has ended (run's deferred End then no-ops): the trace shows the
		// write overlapping whatever runs next, not inside the run.
		span.End()
		s.saves.enqueue(func() {
			_, ssp := telemetry.StartSpan(ctx, "checkpoint.save")
			s.disk.store(dk, k, res)
			ssp.End()
		})
	}
	return res, nil
}

// RunAll executes the specs concurrently and returns results in order;
// any run's failure fails the whole call (cancellation reported in
// preference to incidental errors). Experiments that can degrade
// per-run use RunAllPartial instead.
func (s *Session) RunAll(specs []RunSpec) ([]*sim.Result, error) {
	results, errs := s.RunAllPartial(specs)
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fatal(err) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

// RunAllPartial executes the specs concurrently and returns results and
// errors in spec order: entry i holds either a result or that run's
// error, so callers can degrade failed runs to n/a cells while keeping
// the healthy ones.
func (s *Session) RunAllPartial(specs []RunSpec) ([]*sim.Result, []error) {
	results := make([]*sim.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Admission control lives in execute, not here: memo and
			// disk hits (and coalesced waits) don't occupy a CPU slot.
			results[i], errs[i] = s.Run(specs[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}

// runContext returns a context cancelled when either the session's
// context or the per-call ctx is done, plus its release function.
func (s *Session) runContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == context.Background() {
		return s.ctx, func() {}
	}
	merged, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.ctx, cancel)
	return merged, func() { stop(); cancel() }
}

// runSlot runs body under one concurrency slot. It is the one gate
// every simulation phase passes through — classic runs, shared
// warmups, and forked measure phases alike — so direct Run calls, the
// multicore helpers and the serve layer all honor the cap, not just
// RunAllPartial. The admission span makes NumCPU-saturation waits
// visible in a job's trace next to its queue wait.
//
// The body runs in a child goroutine that never touches the semaphore;
// the slot is released exactly once — when the body finishes, or when
// a cancelled run fails to unwind within the abandon grace (a
// simulation wedged somewhere the cycle loop's cancellation checks
// can't reach, e.g. a blocked trace source). Reclaiming a wedged run's
// slot keeps the session serving on small machines; if the zombie ever
// resumes it transiently overcommits one CPU but can never
// double-release the slot. A panic anywhere in the body — a buggy
// prefetcher constructor, a corrupt trace stream, a simulator bug — is
// converted into the run's error instead of crashing the session.
func runSlot[T any](s *Session, ctx context.Context, body func(context.Context) (T, error)) (T, error) {
	var zero T
	runCtx, release := s.runContext(ctx)
	defer release()

	_, adm := telemetry.StartSpan(runCtx, "session.admission")
	select {
	case s.sem <- struct{}{}:
	case <-runCtx.Done():
		adm.SetAttr("error", runCtx.Err().Error())
		adm.End()
		return zero, runCtx.Err()
	}
	adm.End()

	type runOutcome struct {
		res T
		err error
	}
	done := make(chan runOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- runOutcome{err: &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		res, err := body(runCtx)
		done <- runOutcome{res: res, err: err}
	}()
	select {
	case o := <-done:
		<-s.sem
		return o.res, o.err
	case <-runCtx.Done():
		select {
		case o := <-done:
			<-s.sem
			return o.res, o.err
		case <-time.After(abandonGrace):
			<-s.sem
			s.mu.Lock()
			s.stats.Abandoned++
			s.mu.Unlock()
			return zero, fmt.Errorf("simulation abandoned after cancellation: %w", runCtx.Err())
		}
	}
}

// abandonGrace is how long a cancelled simulation gets to unwind
// cooperatively before execute reclaims its concurrency slot.
const abandonGrace = 100 * time.Millisecond

// specSeed resolves a spec's effective seed against the scale default.
func (s *Session) specSeed(spec RunSpec) int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return s.Scale.Seed
}

// Config assembles the sim.Config the spec describes under seed (the
// spec's own Seed, resolved by the caller). It is the one place a spec
// becomes a system configuration — session runs, warmup leaders, forked
// measure phases, the ipcp facade and the audit runner all build from
// it, so a forked run is bit-identical to a cold one and ipcpsim to
// ipcpd. A system knob is one RunSpec field and one line here.
func (r RunSpec) Config(seed int64) sim.Config {
	cores := r.Cores
	if cores == 0 {
		cores = len(r.Workloads)
	}
	cfg := sim.PaperConfig(cores)
	if r.LLCRepl != "" {
		cfg.LLC.Repl = r.LLCRepl
	}
	if r.DRAMGBps > 0 {
		cfg.DRAM = cfg.DRAM.WithBandwidthGBps(r.DRAMGBps / float64(cfg.DRAM.Channels))
	}
	if r.L1PQ > 0 {
		cfg.L1D.PQSize = r.L1PQ
	}
	if r.L1MSHR > 0 {
		cfg.L1D.MSHRs = r.L1MSHR
	}
	if r.L1DWays > 0 {
		cfg.L1D.Ways = r.L1DWays
	}
	if r.L2Sets > 0 {
		cfg.L2.Sets = r.L2Sets
	}
	if r.LLCSetsPerCore > 0 {
		cfg.LLC.Sets = r.LLCSetsPerCore * cores
	}
	cfg.L1DPrefetcher = sim.PrefetcherSpec{Name: r.L1D}
	if r.IPCPL1 != nil {
		l1 := *r.IPCPL1
		cfg.L1DPrefetcher.New = func() (prefetch.Prefetcher, error) { return core.NewL1IPCP(l1), nil }
	}
	cfg.L2Prefetcher = sim.PrefetcherSpec{Name: r.L2}
	cfg.LLCPrefetcher = sim.PrefetcherSpec{Name: r.LLC}
	cfg.Seed = seed
	return cfg
}

// Streams builds the spec's per-core trace streams under seed.
func (r RunSpec) Streams(seed int64) ([]trace.Stream, error) {
	streams := make([]trace.Stream, 0, len(r.Workloads))
	for _, name := range r.Workloads {
		w, err := workload.Named(name)
		if err != nil {
			return nil, err
		}
		streams = append(streams, w.New(seed))
	}
	return streams, nil
}

// build assembles spec's system under the session's seed resolution;
// warmOnly selects the shared-warmup methodology (sim.Config's
// CacheWarmOnly).
func (s *Session) build(spec RunSpec, warmOnly bool) (*sim.System, error) {
	seed := s.specSeed(spec)
	streams, err := spec.Streams(seed)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config(seed)
	cfg.CacheWarmOnly = warmOnly
	return sim.Build(cfg, streams)
}

// execute simulates spec, the leader's work in lead. A classic run is
// cold. A shared-warmup run forks from its warmup's snapshot; when none
// can be had non-fatally (e.g. the workload never drains to
// quiescence) it runs cold through the identical CacheWarmOnly phases,
// so its result semantics are unchanged — only the warmup sharing is
// lost.
func (s *Session) execute(ctx context.Context, spec RunSpec, shared bool) (*sim.Result, error) {
	if shared {
		snap, err := s.snapshotFor(ctx, spec)
		if err == nil {
			return s.runForked(ctx, spec, snap)
		}
		if fatal(err) {
			return nil, err
		}
		s.log.Warn("shared warmup unavailable; falling back to cold run", "spec", spec.Key(), "err", err)
	}
	return runSlot(s, ctx, func(runCtx context.Context) (*sim.Result, error) {
		s.mu.Lock()
		s.stats.Executed++
		s.mu.Unlock()
		sys, err := s.build(spec, shared)
		if err != nil {
			return nil, err
		}
		defer s.release(sys)
		return sys.RunContext(runCtx, s.Scale.Warmup, s.Scale.Measure)
	})
}

// release recycles a system's arrays once its simulation has returned.
// Every caller defers it in the function that built and ran the system
// — runSlot's body goroutine — which is the only place sim.System's
// Release rule allows: an abandoned run is still inside that function.
func (s *Session) release(sys *sim.System) {
	sys.Release()
	s.mu.Lock()
	s.stats.BuildsRecycled++
	s.mu.Unlock()
}

// capSpread caps a sorted name list by taking evenly spaced entries,
// so a capped subset keeps the suite's diversity (alphabetical
// truncation would drop whole benchmarks — e.g. every irregular
// trace).
func capSpread(names []string, cap int) []string {
	if cap <= 0 || len(names) <= cap {
		return names
	}
	out := make([]string, 0, cap)
	for i := 0; i < cap; i++ {
		out = append(out, names[i*len(names)/cap])
	}
	return out
}

// memIntensive returns the (possibly capped) memory-intensive list.
func (s *Session) memIntensive() []string {
	return capSpread(workload.Names(workload.MemoryIntensive()), s.Scale.MaxTraces)
}

// fullSuite returns the whole SPEC-like list (possibly capped,
// preserving the memory-intensive / compute mix).
func (s *Session) fullSuite() []string {
	names := workload.Names(workload.Suite("spec"))
	if s.Scale.MaxTraces > 0 {
		return capSpread(names, s.Scale.MaxTraces*3/2)
	}
	return names
}
