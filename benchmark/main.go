// Command benchmark is the repository's benchmark: black-box workloads
// over the real ipcpsim, experiments and ipcpd binaries, per-layer
// drivers over the internal packages, and a traced pass. See README.md.
//
//	bash benchmark/run.sh --workload single_stream --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1 -out results.json          # every workload
//	bash benchmark/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed for every generated input")
		seconds      = flag.Float64("seconds", defaultSeconds, "seconds to measure each workload for")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		outPath      = flag.String("out", "", "also write the results as JSON to this file")
		smoke        = flag.Bool("smoke", false, "divide every instruction and request count by 20 (compile-and-run check, not a measurement)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		rootFlag     = flag.String("root", "", "repository root (default: found from the working directory)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "-seconds must be positive")
		os.Exit(2)
	}
	names := workloadNames()
	if *workloadFlag != "all" {
		if _, err := newWorkload(*workloadFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		names = []string{*workloadFlag}
	}
	root, err := findRoot(*rootFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel every operation in flight; the deferred
	// clean-up below then kills and reaps whatever is still running.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, root, names, *seed, *seconds, *trace == 1, *smoke, *outPath)
	stop()
	os.Exit(code)
}

// findRoot locates the repository root: the directory holding cmd/ipcpsim
// and benchmark/. The harness is started from the root (run.sh) or from
// benchmark/ (go run, go test).
func findRoot(explicit string) (string, error) {
	candidates := []string{explicit}
	if explicit == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		candidates = []string{wd, filepath.Dir(wd)}
	}
	for _, c := range candidates {
		if st, err := os.Stat(filepath.Join(c, "cmd", "ipcpsim")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no cmd/ipcpsim under %v: run from the repository root or pass -root", candidates)
}

// newEnv prepares the build and scratch directories, all inside the
// checkout (.bench_build is git-ignored).
func newEnv(root string, traced, smoke bool) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:   root,
		binDir: filepath.Join(build, "bin"),
		artDir: filepath.Join(build, "trace"),
		nproc:  runtime.NumCPU(),
		smoke:  smoke,
		// One connection per client thread is all the closed-loop
		// clients ever hold; idle ones are kept so no request pays a
		// TCP handshake.
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		live: map[*exec.Cmd]struct{}{},
	}
	for _, d := range []string{e.binDir, e.artDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	if e.workDir, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	if traced {
		e.tr = newTracer()
	}
	return e, nil
}

func run(ctx context.Context, root string, names []string, seed int64, seconds float64, traced, smoke bool, outPath string) int {
	e, err := newEnv(root, traced, smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(e.workDir)
	defer e.killAll()

	fp := fingerprint(root, seed)
	res := &results{Fingerprint: fp, Seed: seed, Seconds: seconds, Traced: traced, Smoke: smoke,
		ModelValidated: false, Workloads: map[string]*workloadResult{}}
	printHeader(os.Stdout, res)

	var last *workloadResult
	for _, name := range names {
		budget := seconds
		if traced {
			budget = seconds / 2 // the layer drivers get the other half
		}
		start := time.Now()
		out, err := runWorkload(ctx, e, name, seed, budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		wr := &workloadResult{outcome: *out, Elapsed: time.Since(start).Seconds()}
		if traced {
			wr.Layer = layerMetrics(ctx, e, out, seconds/2)
			if wr.Layer == nil {
				return 1
			}
		}
		res.Workloads[name] = wr
		printWorkload(os.Stdout, name, wr, traced)
		last = wr
	}
	if traced {
		path := filepath.Join(e.artDir, fmt.Sprintf("spans-seed%d.trace.json", seed))
		if err := e.tr.writeChrome(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing span file:", err)
			return 1
		}
		fmt.Printf("\nspans: %s (Chrome trace_event; artifacts beside it)\n", path)
	}
	if outPath != "" {
		if err := res.write(outPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("results: %s\n", outPath)
	}
	// The driver's line: always last. With several workloads it is the
	// last one's; drivers run one workload per invocation.
	// A run that printed its result exits 0 even when operations failed:
	// the failures are in the line.
	line, _ := json.Marshal(last.driverLine(traced))
	fmt.Printf("%s\n", line)
	return 0
}
