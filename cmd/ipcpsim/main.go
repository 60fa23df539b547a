// Command ipcpsim runs one simulation and prints a statistics summary:
//
//	ipcpsim -workload gcc-2226 -l1 ipcp -l2 ipcp -measure 200000
//	ipcpsim -mix lbm-94,omnetpp-17 -l1 bingo
//	ipcpsim -workload gcc-2226 -l1 ipcp -l2 ipcp -trace run.json -interval 10000 -metrics-out run.csv
//	ipcpsim -workload gcc-2226 -l1 ipcp -json
//	ipcpsim -list
//
// Observability flags: -trace writes the measured phase's event trace
// (.json → Chrome trace_event for chrome://tracing / Perfetto,
// anything else → JSONL); -interval N samples the metrics timeline
// every N cycles into -metrics-out (.csv → CSV, else JSONL); -json
// emits the full result as one JSON object on stdout; -cpuprofile /
// -memprofile write stdlib runtime/pprof profiles; -audit runs the
// simulation under the differential audit harness (reference cache
// models and IPCP oracles in lockstep) and exits 2 on any violation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"ipcp"
	"ipcp/internal/memsys"
	"ipcp/internal/sim"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "single-core workload name")
		mix          = flag.String("mix", "", "comma-separated workloads, one per core")
		l1           = flag.String("l1", "", "L1-D prefetcher (see -list)")
		l2           = flag.String("l2", "", "L2 prefetcher")
		llc          = flag.String("llc", "", "LLC prefetcher")
		warmup       = flag.Uint64("warmup", 50_000, "warmup instructions per core")
		measure      = flag.Uint64("measure", 200_000, "measured instructions per core")
		seed         = flag.Int64("seed", 1, "workload/page-allocation seed")
		list         = flag.Bool("list", false, "list workloads and prefetchers")

		traceOut   = flag.String("trace", "", "write the event trace to this file (.json → Chrome trace_event, else JSONL)")
		traceBuf   = flag.Int("trace-buf", 1<<19, "event ring-buffer capacity (oldest events overwritten beyond it)")
		interval   = flag.Int64("interval", 0, "sample interval metrics every N cycles (0 = off)")
		metricsOut = flag.String("metrics-out", "", "write the interval timeline to this file (.csv → CSV, else JSONL; default stdout)")
		jsonOut    = flag.Bool("json", false, "emit the full result as one JSON object on stdout")
		auditRun   = flag.Bool("audit", false, "attach the differential audit harness (slow); exit 2 on any violation")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("prefetchers:", strings.Join(ipcp.Prefetchers(), " "))
		fmt.Println()
		fmt.Println("workloads:")
		for _, w := range ipcp.Workloads() {
			fmt.Println("  ", w)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rc := ipcp.RunConfig{
		Workload:      *workloadName,
		L1DPrefetcher: *l1,
		L2Prefetcher:  *l2,
		LLCPrefetcher: *llc,
		Warmup:        *warmup,
		Measure:       *measure,
		Seed:          *seed,
	}
	if *mix != "" {
		rc.Mix = strings.Split(*mix, ",")
	}
	if *traceOut != "" {
		rc.Tracer = ipcp.NewTracer(*traceBuf)
	}
	if *interval > 0 || *metricsOut != "" {
		rc.Intervals = ipcp.NewIntervalLog(*interval)
	}
	if *auditRun {
		rc.Audit = ipcp.NewAuditChecker()
	}

	// SIGINT/SIGTERM cancel the run cooperatively; telemetry collected up
	// to the interruption is still flushed below before exiting 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := ipcp.RunContext(ctx, rc)
	interrupted := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "ipcpsim: interrupted; flushing telemetry collected so far")
	}

	if *traceOut != "" {
		if err := writeTrace(rc.Tracer, *traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ipcpsim: wrote %d trace events to %s (%d overwritten)\n",
			rc.Tracer.Len(), *traceOut, rc.Tracer.Dropped())
	}
	if rc.Intervals != nil {
		if err := writeIntervals(rc.Intervals, *metricsOut); err != nil {
			fatal(err)
		}
		if *metricsOut != "" {
			fmt.Fprintf(os.Stderr, "ipcpsim: wrote %d interval samples to %s\n",
				rc.Intervals.Len(), *metricsOut)
		}
	}
	if interrupted {
		os.Exit(130)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		report(res)
	}

	if *auditRun {
		if err := rc.Audit.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "ipcpsim: audit:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "ipcpsim: audit clean (reference models and invariants agree)")
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ipcpsim:", err)
	os.Exit(1)
}

// writeTrace exports the event trace; a .json extension selects the
// Chrome trace_event format, anything else JSONL.
func writeTrace(tr *ipcp.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return tr.WriteChromeTrace(f)
	}
	return tr.WriteJSONL(f)
}

// writeIntervals exports the interval timeline; a .csv extension
// selects CSV, anything else JSONL; an empty path writes CSV to stdout.
func writeIntervals(log *ipcp.IntervalLog, path string) error {
	if path == "" {
		return log.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return log.WriteCSV(f)
	}
	return log.WriteJSONL(f)
}

func report(res *ipcp.Result) {
	for i := 0; i < res.Cores; i++ {
		fmt.Printf("core %d: IPC %.4f  (%d instructions in %d cycles)\n",
			i, res.IPC[i], res.Instructions, res.CyclesPerCore[i])
		l1 := res.L1D[i]
		fmt.Printf("  L1D: %6d demand accesses, %6d misses (MPKI %.1f; misses include MSHR merges)\n",
			l1.DemandAccesses(), l1.DemandMisses(), res.MPKI("L1D", i))
		if l1.PrefetchIssued > 0 {
			fmt.Printf("       prefetch: issued %d, filled %d, useful %d (accuracy %.2f), late %d\n",
				l1.PrefetchIssued, l1.PrefetchFills, l1.PrefetchUseful, l1.Accuracy(), l1.LatePrefetch)
			fmt.Printf("       by class: CS %d  CPLX %d  GS %d  NL %d\n",
				l1.IssuedByClass[memsys.ClassCS], l1.IssuedByClass[memsys.ClassCPLX],
				l1.IssuedByClass[memsys.ClassGS], l1.IssuedByClass[memsys.ClassNL])
		}
		if snap := res.IPCPL1[i]; snap != nil {
			reportIPCP(snap)
		}
		l2 := res.L2[i]
		fmt.Printf("  L2:  %6d demand accesses, %6d misses (MPKI %.1f), %d prefetches\n",
			l2.DemandAccesses(), l2.DemandMisses(), res.MPKI("L2", i), l2.PrefetchIssued)
	}
	fmt.Printf("LLC:  %d demand accesses, %d misses\n",
		res.LLC.DemandAccesses(), res.LLC.DemandMisses())
	fmt.Printf("DRAM: %d reads, %d writes, %.1f%% bus utilization, %d row hits / %d misses / %d conflicts\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.BusUtilization()*100,
		res.DRAM.RowHits, res.DRAM.RowMisses, res.DRAM.RowConflicts)
	reportEngine(&res.Engine)
}

// reportEngine prints the scheduler's self-profile: how much of the
// simulated time had to be stepped, how many components a step
// clocked, and which kind of component kept the machine awake.
func reportEngine(e *ipcp.EngineStats) {
	total := e.SteppedCycles + e.JumpedCycles
	if total == 0 {
		return
	}
	span := 0.0
	if e.Jumps > 0 {
		span = float64(e.JumpedCycles) / float64(e.Jumps)
	}
	fmt.Printf("engine: stepped %d of %d cycles (%.1f%%), %.2f component visits per step; %d jumps, mean span %.1f cycles\n",
		e.SteppedCycles, total, 100*float64(e.SteppedCycles)/float64(total), e.VisitsPerStep(), e.Jumps, span)
	fmt.Printf("        %-5s %10s %10s %10s %10s %10s\n", "kind", "visits", "idle", "skipped", "waker", "sole")
	for k := sim.Kind(0); k < sim.NumKinds; k++ {
		fmt.Printf("        %-5s %10d %10d %10d %10d %10d\n", k, e.Visits[k], e.Idle[k], e.Skipped[k], e.Waker[k], e.Sole[k])
	}
}

// reportIPCP prints the per-class introspection table of an IPCP L1.
func reportIPCP(s *ipcp.IPCPSnapshot) {
	nl := "off"
	if s.NLOn {
		nl = "on"
	}
	fmt.Printf("       IPCP: NL gate %s, %d class transitions, RR filter %d/%d hits\n",
		nl, s.ClassTransitions, s.RRHits, s.RRProbes)
	fmt.Printf("       %-5s %8s %8s %8s %6s %6s %8s %8s %6s %6s\n",
		"class", "issued", "fills", "useful", "acc", "deg", "rr-drop", "clamped", "thr+", "thr-")
	for _, cls := range []memsys.PrefetchClass{
		memsys.ClassCS, memsys.ClassCPLX, memsys.ClassGS, memsys.ClassNL,
	} {
		c := s.Classes[cls]
		acc := "--"
		if c.AccuracyMeasured {
			acc = fmt.Sprintf("%.2f", c.Accuracy)
		}
		fmt.Printf("       %-5s %8d %8d %8d %6s %6d %8d %8d %6d %6d\n",
			cls, c.Issued, c.Fills, c.Useful, acc, c.Degree,
			c.RRFiltered, c.PageClamped, c.ThrottleUps, c.ThrottleDowns)
	}
}
