// Command ipcpd is the simulation daemon: a long-running HTTP/JSON
// service over a shared experiment session.
//
//	ipcpd -addr 127.0.0.1:8799 -scale quick -cache-dir .ipcp-cache
//
// It also hosts the distributed sweep tier. One process runs the
// coordinator; any number run as workers that register with it:
//
//	ipcpd -coordinator -addr 127.0.0.1:8800 -data-dir .ipcp-coord -journal-dir .ipcp-coord/journal
//	ipcpd -addr 127.0.0.1:0 -worker http://127.0.0.1:8800
//
//	curl -s -X POST localhost:8800/v1/sweeps \
//	    -d '{"workloads":["mcf-994","gcc-13"],"l1d":["off","ipcp"]}'
//	curl -s localhost:8800/v1/sweeps/j000001          # merged report
//	curl -sN localhost:8800/v1/sweeps/j000001/events  # partial aggregation
//
// A worker runs every point with shared warmups (the sweep
// methodology: the points of one warmup group fork one snapshot),
// registers over HTTP, heartbeats, and attaches the coordinator's
// shared blob store behind its disk cache so any worker's checkpoint is
// every worker's disk hit. The coordinator is the same daemon with no
// simulator: a sweep is one of its jobs — admitted under -queue, run by
// one of its -workers, capped by -job-timeout, journaled under
// -journal-dir (a restarted coordinator resumes every acknowledged
// sweep), drained within -drain-timeout — whose points it shards by
// warmup identity and fans out through the workers' /v1/runs API,
// reassigning them when a worker is lost. It refuses the flags that
// configure a simulation (-cache-dir, -scale, -warmup, -measure).
//
//	curl -s localhost:8799/healthz
//	curl -s -X POST localhost:8799/v1/runs -H 'X-Request-ID: demo' \
//	    -d '{"workloads":["mcf-994"],"l1d":"ipcp","l2":"ipcp"}'
//	curl -s localhost:8799/v1/runs/j000001
//	curl -sN localhost:8799/v1/runs/j000001/events
//	curl -s localhost:8799/v1/runs/j000001/progress
//	curl -s localhost:8799/v1/runs/j000001/trace     # chrome://tracing
//	curl -s -X POST localhost:8799/v1/experiments -d '{"ids":["fig8"]}'
//	curl -s localhost:8799/metrics                    # JSON
//	curl -s -H 'Accept: text/plain' localhost:8799/metrics  # Prometheus
//	curl -s localhost:8799/v1/buildinfo
//	curl -s localhost:8799/debug/trace
//
// Every request is correlated by X-Request-ID (supplied or minted): the
// id rides every structured log line, every span in the trace exports,
// and the job record. Logs go to stderr via log/slog; -log-format json
// emits machine-parseable lines, -log-level debug adds per-request
// access logs.
//
// Identical concurrent submissions coalesce onto one job and one
// simulation; results are memoized for the daemon's lifetime and — with
// -cache-dir — checkpointed to disk, so a restarted daemon serves
// previously computed runs without resimulating.
//
// SIGINT/SIGTERM drain gracefully: admission closes (new submissions
// get 429), queued and in-flight jobs finish (every completed
// simulation checkpointed when -cache-dir is set), then the process
// exits 0. If -drain-timeout expires first, in-flight simulations are
// cancelled cooperatively and the process exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ipcp/internal/chaos"
	"ipcp/internal/coord"
	"ipcp/internal/experiments"
	"ipcp/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8799", "listen address (port 0 picks an ephemeral port)")
		scale        = flag.String("scale", "quick", "simulation scale: quick | default")
		warmup       = flag.Uint64("warmup", 0, "override warmup instructions")
		measure      = flag.Uint64("measure", 0, "override measured instructions")
		cacheDir     = flag.String("cache-dir", "", "checkpoint finished simulations here and serve them across restarts")
		queueSize    = flag.Int("queue", 64, "bounded job backlog; a full queue rejects with 429")
		workers      = flag.Int("workers", 0, "concurrent job runners (0 = NumCPU)")
		jobTimeout   = flag.Duration("job-timeout", 0, "cap on per-job deadlines (0 = unbounded)")
		journalDir   = flag.String("journal-dir", "", "write-ahead journal every job here; on restart, acknowledged jobs are replayed (finished ones re-served, unfinished ones re-run)")
		stallTimeout = flag.Duration("stall-timeout", 0, "reap running jobs whose simulation progress stalls this long (0 = no watchdog)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long a SIGTERM drain may take before in-flight work is cancelled")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logFormat    = flag.String("log-format", "text", "log encoding: text | json")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty)")

		coordinator = flag.Bool("coordinator", false, "run as the sweep coordinator instead of a simulation daemon")
		dataDir     = flag.String("data-dir", ".ipcp-coord", "coordinator: shared blob store directory")
		heartbeat   = flag.Duration("heartbeat", 5*time.Second, "coordinator: declare a worker lost after this silent window")
		workerOf    = flag.String("worker", "", "register with the coordinator at this URL and serve sweep points (with shared warmups)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "unknown log level", *logLevel)
		os.Exit(1)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, hopts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	default:
		fmt.Fprintln(os.Stderr, "unknown log format", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *warmup != 0 {
		sc.Warmup = *warmup
	}
	if *measure != 0 {
		sc.Measure = *measure
	}

	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	// Fault injection (IPCPD_CHAOS / IPCPD_CHAOS_SEED) arms only when
	// the environment asks for it; production pays one atomic load.
	if _, err := chaos.EnableFromEnv(); err == nil {
		logger.Warn("chaos injection armed", "spec", os.Getenv(chaos.EnvVar))
	} else if err != chaos.ErrNotConfigured {
		fatal(err)
	}

	if *debugAddr != "" {
		// pprof lives on its own listener, in every mode, so profiling
		// exposure is an explicit, separately-bindable decision (e.g.
		// localhost-only while the API faces the network).
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		logger.Info("pprof serving", "addr", "http://"+dln.Addr().String()+"/debug/pprof/")
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				logger.Error("pprof server stopped", "err", err)
			}
		}()
	}

	// Coordinator mode: the daemon's sweep jobs run on a fleet of
	// workers, so it simulates nothing and the simulation flags would be
	// silently ignored — refuse them instead.
	var fleet *coord.Coordinator
	if *coordinator {
		if *workerOf != "" {
			fatal(fmt.Errorf("-coordinator and -worker are mutually exclusive"))
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "cache-dir", "scale", "warmup", "measure":
				fatal(fmt.Errorf("-coordinator runs no simulations: -%s does not apply", f.Name))
			}
		})
		var err error
		if fleet, err = coord.New(coord.Options{DataDir: *dataDir, HeartbeatTimeout: *heartbeat, Log: logger}); err != nil {
			fatal(err)
		}
		defer fleet.Close()
	}

	// Worker mode: sweep points arrive as ordinary /v1/runs jobs, but
	// the methodology is fixed — shared warmups (so a group's points
	// fork one local snapshot) over a disk cache wired to the
	// coordinator's blob store (so nothing is computed twice anywhere
	// in the fleet). A worker with no -cache-dir gets a private
	// temporary one; the durable tier is the coordinator's.
	var remoteBlobs experiments.RemoteBlobs
	if *workerOf != "" {
		if *cacheDir == "" {
			dir, err := os.MkdirTemp("", "ipcpd-worker-cache-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			*cacheDir = dir
		}
		remoteBlobs = coord.NewBlobClient(*workerOf, logger)
	}

	opts := serve.Options{
		Scale:        sc,
		CacheDir:     *cacheDir,
		QueueSize:    *queueSize,
		Workers:      *workers,
		JobTimeout:   *jobTimeout,
		JournalDir:   *journalDir,
		StallTimeout: *stallTimeout,
		SharedWarmup: *workerOf != "",
		RemoteBlobs:  remoteBlobs,
		Log:          logger,
	}
	role := "ipcpd"
	if fleet != nil {
		opts.Fleet, role = fleet, "ipcpd coordinator"
	}
	srv, err := serve.New(opts)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// A script that reads the address below may signal at once: catch
	// the signal from here on.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	// The resolved address goes to stdout so scripts driving an
	// ephemeral port (-addr 127.0.0.1:0) can find the server.
	fmt.Printf("%s listening on http://%s\n", role, ln.Addr())
	build := srv.Build()
	logger.Info("serving",
		"addr", "http://"+ln.Addr().String(), "scale", *scale, "queue", *queueSize,
		"revision", build.Revision, "go", build.GoVersion)

	// Register with the coordinator once the listen address is known.
	// The agent keeps the registration alive for the process lifetime;
	// a coordinator outage degrades this daemon to standalone serving.
	var agentCancel context.CancelFunc
	if *workerOf != "" {
		capacity := *workers
		if capacity <= 0 {
			capacity = runtime.NumCPU()
		}
		var actx context.Context
		actx, agentCancel = context.WithCancel(context.Background())
		coord.StartAgent(actx, *workerOf, "http://"+ln.Addr().String(), capacity, sc, logger)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String())
	}

	// Drain while the listener keeps answering: pollers see their jobs
	// finish and late submitters get an explicit 429 instead of a
	// connection refusal.
	if agentCancel != nil {
		agentCancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	srv.Close()
	if drainErr != nil {
		logger.Error("drain incomplete, in-flight work cancelled", "err", drainErr)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
