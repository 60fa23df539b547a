package prefetch

import (
	"strings"
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/telemetry"
)

// bomb panics on the Nth Operate call.
type bomb struct {
	Nil
	at, calls int
}

func (b *bomb) Name() string { return "bomb" }

func (b *bomb) Operate(now int64, a *Access, iss Issuer) {
	b.calls++
	if b.calls == b.at {
		panic("kaboom")
	}
	iss.Issue(Candidate{Addr: a.Addr + memsys.BlockSize})
}

// flood issues n candidates per Operate.
type flood struct {
	Nil
	n int
	// far places every candidate far from the trigger (for distance
	// tests).
	far bool
}

func (f *flood) Name() string { return "flood" }

func (f *flood) Operate(now int64, a *Access, iss Issuer) {
	for i := 1; i <= f.n; i++ {
		addr := a.Addr + memsys.Addr(i)*memsys.BlockSize
		if f.far {
			addr = a.Addr + memsys.Addr(i)*(1<<30)
		}
		iss.Issue(Candidate{Addr: addr})
	}
}

type sink struct{ n int }

func (s *sink) Issue(Candidate) bool { s.n++; return true }

func TestGuardRecoversPanicAndDisables(t *testing.T) {
	b := &bomb{at: 3}
	g := NewGuard(b, memsys.LevelL1D)
	var iss sink
	a := &Access{Addr: 0x1000}
	for i := 0; i < 10; i++ {
		g.Operate(int64(i), a, &iss)
	}
	if dis, reason := g.Disabled(); !dis {
		t.Fatal("guard did not trip on panic")
	} else if !strings.Contains(reason, "panic in bomb.Operate") {
		t.Errorf("trip reason = %q", reason)
	}
	if g.Stats.Panics != 1 {
		t.Errorf("Panics = %d, want 1", g.Stats.Panics)
	}
	if len(g.Stack) == 0 {
		t.Error("no stack captured")
	}
	// Calls 1 and 2 issued; the rest were dropped.
	if iss.n != 2 {
		t.Errorf("issued %d candidates, want 2", iss.n)
	}
	if g.Stats.DroppedCalls != 7 {
		t.Errorf("DroppedCalls = %d, want 7", g.Stats.DroppedCalls)
	}
}

func TestGuardCapsRunawayIssuer(t *testing.T) {
	// 256 candidates from one Operate pass; each one beyond is a strike.
	g := NewGuard(&flood{n: 256 + 7}, memsys.LevelL2)
	var iss sink
	g.Operate(0, &Access{Addr: 0x1000}, &iss)
	if iss.n != 256 || g.Stats.BudgetViolations != 7 {
		t.Errorf("issued %d candidates past the guard with %d violations, want 256 and 7", iss.n, g.Stats.BudgetViolations)
	}
	if dis, _ := g.Disabled(); dis {
		t.Fatal("guard tripped on 7 strikes")
	}
	// The eighth strike trips it.
	g.Operate(1, &Access{Addr: 0x1000}, &iss)
	if dis, _ := g.Disabled(); !dis || iss.n != 512 || g.Stats.BudgetViolations != 8 {
		t.Errorf("after the eighth strike: disabled %v, issued %d, violations %d; want true, 512, 8",
			dis, iss.n, g.Stats.BudgetViolations)
	}
}

func TestGuardPageDistanceOptIn(t *testing.T) {
	// Page distance is not a guard bound: far candidates pass untouched.
	g := NewGuard(&flood{n: 4, far: true}, memsys.LevelL1D)
	var iss sink
	g.Operate(0, &Access{Addr: 0x1000}, &iss)
	if iss.n != 4 || g.Stats.BudgetViolations != 0 {
		t.Errorf("guard issued %d far candidates with %d violations, want 4 and 0", iss.n, g.Stats.BudgetViolations)
	}
}

func TestGuardTripEmitsTelemetry(t *testing.T) {
	b := &bomb{at: 1}
	g := NewGuard(b, memsys.LevelL2)
	tr := telemetry.NewTracer(16)
	g.SetTracer(tr, 3)
	g.Operate(42, &Access{Addr: 0x1000}, &sink{})
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != telemetry.EvGuardTrip || ev.Cycle != 42 || ev.Core != 3 || ev.Level != memsys.LevelL2 {
		t.Errorf("trip event = %+v", ev)
	}
}

func TestUnwrapped(t *testing.T) {
	inner := &flood{n: 1}
	var p Prefetcher = NewGuard(NewGuard(inner, memsys.LevelL1D), memsys.LevelL1D)
	if got := Unwrapped(p); got != inner {
		t.Errorf("Unwrapped = %T, want the inner flood", got)
	}
	if got := Unwrapped(inner); got != inner {
		t.Error("Unwrapped on an unwrapped prefetcher must be identity")
	}
}

func TestGuardRegistryDuplicatePanics(t *testing.T) {
	const name = "guard-test-dup"
	Register(name, func(Level) Prefetcher { return Nil{} })
	defer delete(registry, name) // keep the registry clean for Names()-driven tests
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(name, func(Level) Prefetcher { return Nil{} })
}
