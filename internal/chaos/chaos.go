// Package chaos is the serving layer's fault-injection harness: named
// injection points compiled into production IO paths (journal appends,
// checkpoint saves, queue handoff) that are inert until an Injector is
// installed. A rule attached to a point can fail it with a disk-shaped
// error (EIO, ENOSPC), cut a write short (a torn write), stall it
// (slow IO), or crash the whole process at exactly that point — the
// software form of a kill -9 landing mid-operation.
//
// Chaos points live inside production code: the crash/restart e2e
// suite enables them on the real ipcpd binary via the IPCPD_CHAOS
// environment variable and proves the durability machinery (journal
// replay, checkpoint quarantine) holds under fire. With no injector
// installed every hook is a single atomic load. The adversaries tests
// pass into the simulator directly (panicking streams, runaway
// prefetchers, byte corrupters) are in adversaries.go.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind is what a rule does when it fires.
type Kind int

const (
	// KindErr fails the point with Rule.Err.
	KindErr Kind = iota
	// KindShort makes the point's writer write only half the buffer
	// and then fail — a torn write that leaves real partial bytes.
	KindShort
	// KindSlow sleeps Rule.Delay before letting the point proceed.
	KindSlow
	// KindCrash terminates the process (exit 137, the kill -9 status)
	// at the point. Tests can override the crash function.
	KindCrash
)

// Rule arms one behavior at one point.
type Rule struct {
	// Point names the injection site, e.g. "journal.append".
	Point string
	// Kind selects the fault.
	Kind Kind
	// Prob is the chance (0,1] the rule fires on an eligible hit.
	Prob float64
	// Err is returned for KindErr (defaults to EIO).
	Err error
	// Delay is the KindSlow stall.
	Delay time.Duration
	// After suppresses the rule for the first After hits of the
	// point, making "crash on exactly the 3rd append" expressible.
	After int
}

// Injector holds the armed rules. The zero value has none; use New.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rules   map[string][]*Rule
	hits    map[string]int
	crashFn func(point string)
	fired   atomic.Uint64
}

// New returns an empty injector whose probabilistic decisions derive
// from seed, so a chaos run is reproducible.
func New(seed int64) *Injector {
	return &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		rules:   make(map[string][]*Rule),
		hits:    make(map[string]int),
		crashFn: func(point string) { os.Exit(137) },
	}
}

// Add arms one rule.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r.Prob <= 0 || r.Prob > 1 {
		r.Prob = 1
	}
	if r.Err == nil {
		r.Err = syscall.EIO
	}
	rc := r
	in.rules[r.Point] = append(in.rules[r.Point], &rc)
}

// SetCrashFunc replaces the process-exit crash with fn (tests use a
// panic or a flag instead of dying).
func (in *Injector) SetCrashFunc(fn func(point string)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashFn = fn
}

// Fired reports how many rules have fired so far.
func (in *Injector) Fired() uint64 { return in.fired.Load() }

// pick returns the rule that fires for this hit of point, if any.
// KindShort rules only fire through Writer, never through At.
func (in *Injector) pick(point string, forWrite bool) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[point]++
	n := in.hits[point]
	for _, r := range in.rules[point] {
		if r.Kind == KindShort && !forWrite {
			continue
		}
		if n <= r.After {
			continue
		}
		if r.Prob >= 1 || in.rng.Float64() < r.Prob {
			return r
		}
	}
	return nil
}

// At evaluates the point: it may sleep, crash the process, or return
// the injected error. A nil return means the operation proceeds.
func (in *Injector) At(point string) error {
	if in == nil {
		return nil
	}
	r := in.pick(point, false)
	if r == nil {
		return nil
	}
	in.fired.Add(1)
	switch r.Kind {
	case KindSlow:
		time.Sleep(r.Delay)
		return nil
	case KindCrash:
		in.crash(point)
		return nil
	default:
		return fmt.Errorf("chaos %s: %w", point, r.Err)
	}
}

func (in *Injector) crash(point string) {
	in.mu.Lock()
	fn := in.crashFn
	in.mu.Unlock()
	fn(point)
}

// faultWriter interposes the injector on every Write through the
// point, so short writes leave genuine partial bytes behind.
type faultWriter struct {
	in    *Injector
	point string
	w     io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	r := fw.in.pick(fw.point, true)
	if r == nil {
		return fw.w.Write(p)
	}
	fw.in.fired.Add(1)
	switch r.Kind {
	case KindSlow:
		time.Sleep(r.Delay)
		return fw.w.Write(p)
	case KindShort:
		n, err := fw.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("chaos %s: %w", fw.point, io.ErrShortWrite)
	case KindCrash:
		// Half the bytes land, then the process dies: a torn write
		// exactly as a power cut would leave it.
		fw.w.Write(p[:len(p)/2])
		fw.in.crash(fw.point)
		return 0, fmt.Errorf("chaos %s: crash returned", fw.point)
	default:
		return 0, fmt.Errorf("chaos %s: %w", fw.point, r.Err)
	}
}

// Writer interposes the injector between point and w.
func (in *Injector) Writer(point string, w io.Writer) io.Writer {
	if in == nil {
		return w
	}
	return &faultWriter{in: in, point: point, w: w}
}

// Parse builds an injector from a spec string:
//
//	point=kind[:prob[:arg]][,point=kind...]
//
// kinds: eio | enospc | short | slow | crash. prob defaults to 1.
// arg is the slow delay ("50ms") or the crash/err After count.
//
//	journal.append=crash:0.05,checkpoint.save=enospc:0.2
//	checkpoint.write=short:1:2      (always, but only after 2 writes)
//	journal.fsync=slow:1:20ms
func Parse(spec string, seed int64) (*Injector, error) {
	in := New(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, rest, ok := strings.Cut(part, "=")
		if !ok || point == "" {
			return nil, fmt.Errorf("chaos: bad rule %q (want point=kind[:prob[:arg]])", part)
		}
		fields := strings.Split(rest, ":")
		r := Rule{Point: point, Prob: 1}
		switch fields[0] {
		case "eio":
			r.Kind, r.Err = KindErr, syscall.EIO
		case "enospc":
			r.Kind, r.Err = KindErr, syscall.ENOSPC
		case "short":
			r.Kind = KindShort
		case "slow":
			r.Kind = KindSlow
		case "crash":
			r.Kind = KindCrash
		default:
			return nil, fmt.Errorf("chaos: unknown kind %q in %q", fields[0], part)
		}
		if len(fields) > 1 && fields[1] != "" {
			p, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("chaos: bad probability %q in %q", fields[1], part)
			}
			r.Prob = p
		}
		if len(fields) > 2 && fields[2] != "" {
			if r.Kind == KindSlow {
				d, err := time.ParseDuration(fields[2])
				if err != nil {
					return nil, fmt.Errorf("chaos: bad delay %q in %q", fields[2], part)
				}
				r.Delay = d
			} else {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("chaos: bad after-count %q in %q", fields[2], part)
				}
				r.After = n
			}
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("chaos: trailing fields in %q", part)
		}
		in.Add(r)
	}
	return in, nil
}

// --- package-level default injector --------------------------------------

// def is the process-wide injector; nil (the common case) makes every
// production hook a single atomic load.
var def atomic.Pointer[Injector]

// Enable installs in as the process-wide injector (nil disables).
func Enable(in *Injector) { def.Store(in) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return def.Load() != nil }

// Default returns the installed injector, or nil.
func Default() *Injector { return def.Load() }

// At evaluates the point against the process-wide injector.
func At(point string) error { return def.Load().At(point) }

// Writer interposes the process-wide injector on w (w unchanged when
// chaos is disabled).
func Writer(point string, w io.Writer) io.Writer { return def.Load().Writer(point, w) }

// EnvVar and EnvSeed configure the process-wide injector at daemon
// startup (see EnableFromEnv).
const (
	EnvVar  = "IPCPD_CHAOS"
	EnvSeed = "IPCPD_CHAOS_SEED"
)

// ErrNotConfigured reports an empty/unset EnvVar to EnableFromEnv.
var ErrNotConfigured = errors.New("chaos: not configured")

// EnableFromEnv parses EnvVar (seeded by EnvSeed, default 1) and
// installs the result. Returns ErrNotConfigured when EnvVar is unset,
// so callers can tell "off" from "misconfigured".
func EnableFromEnv() (*Injector, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil, ErrNotConfigured
	}
	seed := int64(1)
	if s := os.Getenv(EnvSeed); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad %s %q: %w", EnvSeed, s, err)
		}
		seed = n
	}
	in, err := Parse(spec, seed)
	if err != nil {
		return nil, err
	}
	Enable(in)
	return in, nil
}
