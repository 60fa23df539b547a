// Command experiments regenerates the paper's tables and figures:
//
//	experiments -list
//	experiments -run fig8,fig10
//	experiments -run all -scale default -out EXPERIMENTS-data.md
//	experiments -run all -cache-dir .ipcp-cache   # interruptible + resumable
//
// SIGINT/SIGTERM interrupt the run cooperatively: in-flight simulations
// stop within a few thousand cycles, completed tables are flushed, and
// the process exits 130. With -cache-dir every finished simulation is
// checkpointed (before the process exits, on either path), so rerunning
// the same command resumes instead of recomputing (-resume is shorthand
// for the default cache directory).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ipcp/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment ids, or 'all'")
		scale    = flag.String("scale", "quick", "quick | default | full")
		out      = flag.String("out", "", "write markdown to this file (default stdout)")
		traces   = flag.Int("traces", 0, "override the trace cap (0 = scale default)")
		mixes    = flag.Int("mixes", 0, "override the multi-core mix count")
		warmup   = flag.Uint64("warmup", 0, "override warmup instructions")
		measure  = flag.Uint64("measure", 0, "override measured instructions")
		list     = flag.Bool("list", false, "list experiments")
		cacheDir = flag.String("cache-dir", "", "checkpoint finished simulations here and resume from them")
		resume   = flag.Bool("resume", false, "shorthand for -cache-dir .ipcp-cache")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the harness to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "default":
		sc = experiments.Default
	case "full":
		sc = experiments.Default
		sc.Measure *= 4
		sc.Mixes *= 2
	default:
		fmt.Fprintln(os.Stderr, "unknown scale", *scale)
		os.Exit(1)
	}
	if *traces != 0 {
		sc.MaxTraces = *traces
	}
	if *mixes != 0 {
		sc.Mixes = *mixes
	}
	if *warmup != 0 {
		sc.Warmup = *warmup
	}
	if *measure != 0 {
		sc.Measure = *measure
	}

	var ids []string
	if *run == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	// SIGINT/SIGTERM cancel the context; the cycle loops notice within a
	// few thousand cycles and everything completed so far is flushed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	session := experiments.NewSessionContext(ctx, sc)
	if *resume && *cacheDir == "" {
		*cacheDir = ".ipcp-cache"
	}
	if *cacheDir != "" {
		if err := session.SetCacheDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "checkpointing results to", *cacheDir)
	}

	start := time.Now()
	rep, err := experiments.RunIDs(ctx, session, ids,
		func(res experiments.ExperimentResult, done bool) {
			switch {
			case !done:
				fmt.Fprintf(os.Stderr, "running %s (%s)...", res.ID, res.Title)
			case res.Err != nil:
				fmt.Fprintf(os.Stderr, " failed after %.1fs: %v\n", res.Elapsed.Seconds(), res.Err)
			default:
				fmt.Fprintf(os.Stderr, " done in %.1fs\n", res.Elapsed.Seconds())
			}
		})
	if err != nil {
		// Only an unknown experiment id aborts before the loop finishes.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Results are checkpointed behind the runs that produced them; wait
	// for the tail here, once, so every exit below — 130 after a SIGINT
	// included — leaves a cache directory the next invocation resumes
	// from.
	session.Flush()

	md := rep.Markdown()
	if *out == "" {
		fmt.Print(md)
	} else if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	} else {
		fmt.Fprintln(os.Stderr, "wrote", *out)
	}
	fmt.Fprintf(os.Stderr, "%d experiments in %.1fs (%d simulations executed)\n",
		len(rep.Results), time.Since(start).Seconds(), session.Executed())

	switch {
	case rep.Interrupted:
		os.Exit(130)
	case len(rep.Failed()) > 0:
		os.Exit(1)
	}
}
