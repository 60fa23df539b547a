// Package prefetch defines the hardware-prefetcher interface the cache
// hierarchy exposes, plus the registry used by the CLIs and the
// experiment harness to construct prefetchers by name.
//
// The hook model follows ChampSim's: a prefetcher attached to a cache
// is invoked on every read access handled by that cache (demand loads,
// RFOs, code reads, and prefetch requests arriving from the level
// above — the latter carry the L1→L2 IPCP metadata), and on every
// block fill. Prefetch candidates are issued through the Issuer the
// cache passes with each access.
package prefetch

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ipcp/internal/memsys"
)

// Candidate is one prefetch a prefetcher wants issued.
type Candidate struct {
	// Addr is a byte address in the cache's native address space:
	// virtual at the L1-D (the paper's IPCP trains on virtual
	// addresses), physical at the L2 and below.
	Addr memsys.Addr
	// IP is the triggering instruction pointer; it travels with the
	// prefetch request so lower-level prefetchers can attribute the
	// request (the paper: "the IP of the request is passed to the
	// L2").
	IP memsys.Addr
	// FillLevel bounds how far up the block is installed. Zero means
	// "this cache's own level".
	FillLevel memsys.Level
	// Class tags the candidate with its IPCP class (ClassNone for
	// non-IPCP prefetchers).
	Class memsys.PrefetchClass
	// Meta is the encoded 9-bit L1→L2 metadata payload, if any.
	Meta uint16
}

// Issuer accepts prefetch candidates. Issue reports whether the
// candidate was accepted into the prefetch queue (false: queue full or
// untranslatable address — the candidate is dropped, as real hardware
// would).
type Issuer interface {
	Issue(c Candidate) bool
}

// Access describes one read access observed by a cache, passed to the
// attached prefetcher's Operate hook.
type Access struct {
	// Addr is the physical byte address; VAddr the virtual one (zero
	// below the L1 for prefetch-generated requests with no virtual
	// origin).
	Addr  memsys.Addr
	VAddr memsys.Addr
	// IP is the triggering instruction pointer (zero if unknown).
	IP memsys.Addr
	// Type is the access type (Load, RFO, CodeRead, or Prefetch for
	// requests arriving from the level above).
	Type memsys.AccessType
	// Hit reports whether the access hit in this cache.
	Hit bool
	// Meta carries the IPCP metadata of an arriving prefetch request.
	Meta uint16
	// HitPrefetched reports that the access hit a line brought in by a
	// prefetch that had not been demanded yet (a "useful prefetch"
	// event — filters like PPF train on it).
	HitPrefetched bool
	// HitClass is the IPCP class of that prefetched line.
	HitClass memsys.PrefetchClass
}

// FillEvent describes one block installation, passed to Fill.
type FillEvent struct {
	Addr     memsys.Addr // physical block address
	VAddr    memsys.Addr // virtual block address if known
	Set, Way int
	Prefetch bool
	Class    memsys.PrefetchClass
	Evicted  memsys.Addr // physical address of the victim block, 0 if none
	// EvictedUnusedPrefetch reports that the victim was a prefetched
	// line never demanded — a "useless prefetch" training event.
	EvictedUnusedPrefetch bool
}

// Prefetcher is the per-cache prefetching hook. Implementations must be
// single-threaded; the simulator never calls them concurrently.
type Prefetcher interface {
	// Name identifies the prefetcher (for stats and CLI output).
	Name() string
	// Operate observes one access and may issue candidates via iss.
	Operate(now int64, a *Access, iss Issuer)
	// Fill observes one block installation.
	Fill(now int64, f *FillEvent)
	// Cycle is clocked once per simulated cycle (for epoch logic).
	Cycle(now int64)
}

// NoEvent is the NextEvent return value meaning "no self-scheduled
// work": the prefetcher's Cycle hook is a no-op until some external
// input (an Operate or Fill call) arrives.
const NoEvent = int64(math.MaxInt64)

// NextEventer is optionally implemented by prefetchers whose Cycle hook
// does periodic work (epoch counters, delayed-release queues). NextEvent
// returns the earliest cycle > now at which Cycle must run to preserve
// bit-identical behaviour, or NoEvent if Cycle is a pure no-op until the
// prefetcher next observes an access or fill. The fast-forwarding
// scheduler treats a prefetcher that does NOT implement this interface
// conservatively: its cache is clocked every cycle.
type NextEventer interface {
	NextEvent(now int64) int64
}

// Nil is a no-op prefetcher, used where a level has prefetching
// disabled.
type Nil struct{}

func (Nil) Name() string                   { return "none" }
func (Nil) Operate(int64, *Access, Issuer) {}
func (Nil) Fill(int64, *FillEvent)         {}
func (Nil) Cycle(int64)                    {}
func (Nil) NextEvent(int64) int64          { return NoEvent }

// --- Registry ---------------------------------------------------------

// Level describes where a prefetcher is being constructed so factories
// can size or parametrize themselves (e.g. IPCP differs at L1 vs L2).
type Level = memsys.Level

// Factory builds a prefetcher for the given cache level.
type Factory func(level Level) Prefetcher

var registry = map[string]Factory{}

// Register adds a named prefetcher factory. It panics on duplicates so
// wiring mistakes surface at init time.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("prefetch: duplicate registration of %q", name))
	}
	registry[name] = f
}

// fillLevels are the "@level" suffixes New accepts.
var fillLevels = map[string]Level{"l1d": memsys.LevelL1D, "l2": memsys.LevelL2, "llc": memsys.LevelLLC}

// New constructs a registered prefetcher by name. The name "none" (or
// empty) yields the no-op prefetcher; "<name>@l2" (or @l1d, @llc) is
// <name> wrapped in FillAt — it learns at the cache it is attached to
// and fills only up to the named level (the paper's Fig. 1).
func New(name string, level Level) (Prefetcher, error) {
	f, fill, err := parse(name)
	if err != nil {
		return nil, err
	}
	var p Prefetcher = Nil{}
	if f != nil {
		p = f(level)
	}
	if fill != memsys.LevelCore {
		p = FillAt{Inner: p, Level: fill}
	}
	return p, nil
}

// Check reports whether New accepts name, without constructing anything:
// a factory cannot fail, so a name that parses is a name that builds.
func Check(name string) error {
	_, _, err := parse(name)
	return err
}

// parse resolves a prefetcher name to its factory (nil for "none" or
// empty) and, for "<name>@<level>", the level it fills up to (LevelCore,
// never a fill level, when there is no suffix).
func parse(name string) (Factory, Level, error) {
	base, at, ok := strings.Cut(name, "@")
	fill := memsys.LevelCore
	if ok {
		if fill, ok = fillLevels[at]; !ok {
			return nil, 0, fmt.Errorf("prefetch: unknown fill level in %q (want @l1d, @l2 or @llc)", name)
		}
	}
	if base == "" || base == "none" {
		return nil, fill, nil
	}
	f, ok := registry[base]
	if !ok {
		return nil, 0, fmt.Errorf("prefetch: unknown prefetcher %q (known: %v)", base, Names())
	}
	return f, fill, nil
}

// Names returns the sorted registered prefetcher names.
func Names() []string {
	names := make([]string, 0, len(registry)+1)
	names = append(names, "none")
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
