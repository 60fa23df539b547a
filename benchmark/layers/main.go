// Command layers holds the benchmark's per-layer drivers: thin loops
// that time calls into each internal package's public functions, one
// figure per layer metric. The harness (package main one directory up)
// builds and runs it during the traced pass and reads its JSON.
//
// It is a separate binary on purpose: the end-to-end workloads drive
// only the real CLIs and the HTTP API, so a refactor of an internal Go
// API can break this program's build without bending an end-to-end
// number. The drivers keep to constructors and the AddRead / Cycle /
// NextEvent / Operate / Build / Snapshot / RestoreSnapshot /
// Session.Run / RunShared surfaces, and stay away from anything ROADMAP
// items 2-3 plan to delete or move (the parallel engine, the blob-frame
// codec, the journal): those costs are measured over HTTP instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// A driver measures one or more per-layer metrics.
type driver struct {
	name string // the layer, for error messages
	run  func(b *bench) error
}

// bench is what a driver gets: its time budget, a scratch directory,
// and somewhere to report.
type bench struct {
	budget time.Duration // per driver
	dir    string
	smoke  bool
	t0     time.Time
	start  time.Time // of the running driver
	out    []record
}

type record struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// report records one metric; its span is the part of the driver since
// the previous report.
func (b *bench) report(name string, v float64) {
	now := time.Now()
	b.out = append(b.out, record{Name: name, Value: v,
		StartMS: b.start.Sub(b.t0).Seconds() * 1000, EndMS: now.Sub(b.t0).Seconds() * 1000})
	b.start = now
}

// slice is the share of the driver's budget one of its n timing loops
// gets.
func (b *bench) slice(n int) time.Duration { return b.budget / time.Duration(n) }

// scale shrinks a problem size in smoke mode.
func (b *bench) scale(n int) int {
	if b.smoke {
		if n /= 20; n < 1 {
			n = 1
		}
	}
	return n
}

// perCall times fn(n), which makes n calls, and returns nanoseconds per
// call: n is doubled until one batch takes a sixth of the budget, then
// the median of three such batches is taken, so one descheduling does
// not decide the figure.
func perCall(budget time.Duration, fn func(n int)) float64 {
	n := 256
	for {
		start := time.Now()
		fn(n)
		if time.Since(start) >= budget/6 || n >= 1<<28 {
			break
		}
		n *= 2
	}
	var ns [3]float64
	for i := range ns {
		start := time.Now()
		fn(n)
		ns[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	sort.Float64s(ns[:])
	return ns[1]
}

// perOp times whole operations (a build, a snapshot): fn is repeated
// until the budget is spent, at least three times, and the median
// duration in milliseconds returned. fn returns the time to count, so
// set-up inside it can be left out.
func perOp(budget time.Duration, fn func() (time.Duration, error)) (float64, error) {
	var ms []float64
	start := time.Now()
	for len(ms) < 3 || time.Since(start) < budget {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ms = append(ms, d.Seconds()*1000)
		if len(ms) >= 1000 {
			break
		}
	}
	sort.Float64s(ms)
	return ms[len(ms)/2], nil
}

func main() { os.Exit(run()) }

func run() int {
	seconds := flag.Float64("seconds", 5, "total time budget, split evenly over the drivers")
	dir := flag.String("dir", "", "scratch directory (required)")
	smoke := flag.Bool("smoke", false, "tiny problem sizes: a compile-and-run check")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "layers: -dir is required")
		return 2
	}
	scratch, err := os.MkdirTemp(*dir, "layers-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{dir: scratch, smoke: *smoke, t0: time.Now(),
		budget: time.Duration(*seconds * float64(time.Second) / float64(len(drivers)))}
	for _, d := range drivers {
		b.start = time.Now()
		if err := d.run(b); err != nil {
			fmt.Fprintf(os.Stderr, "layers: %s: %v\n", d.name, err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(b.out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 1
	}
	return 0
}
