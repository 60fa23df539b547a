package workload

import (
	"reflect"
	"testing"

	"ipcp/internal/trace"
)

// TestSeekMatchesReplay holds Seek to the replay it replaces: for every
// workload, a fresh stream sought to the position another stream
// reported after n instructions produces exactly what that stream
// produces next, and ends up reporting the same position. Both ways to
// the position are held to it: copying the live source a position taken
// in this process carries, and re-drawing, which a position decoded
// from bytes (no live source) takes.
func TestSeekMatchesReplay(t *testing.T) {
	const seed, follow = 11, 20_000
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for i, at := range []int{0, 1, 4_095, 150_000, 0, 1, 4_095, 150_000} {
				ref := w.New(seed)
				if got := len(trace.Collect(ref, at)); got != at {
					t.Fatalf("stream ended after %d of %d instructions", got, at)
				}
				fresh := w.New(seed)
				p := ref.(trace.Seeker).Position()
				live := i < 4
				if !live {
					p = p.WithLive(nil)
				}
				if err := fresh.(trace.Seeker).Seek(p, int64(at)); err != nil {
					t.Fatalf("@%d: %v", at, err)
				}
				// Reset draws what the sources' resets draw; the rest is the seek's.
				discards := p.Draws - w.New(seed).(trace.Seeker).Position().Draws
				if live {
					discards = 0
				}
				if d := fresh.(*gen).Discarded(); d != discards {
					t.Errorf("@%d live=%v: the seek discarded %d draws, want %d", at, live, d, discards)
				}
				want, got := trace.Collect(ref, follow), trace.Collect(fresh, follow)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("@%d: instruction %d after the seek is %+v, replay gives %+v", at, i, got[i], want[i])
					}
				}
				if a, b := ref.(trace.Seeker).Position(), fresh.(trace.Seeker).Position(); !reflect.DeepEqual(a, b) {
					t.Fatalf("@%d: positions diverge after %d more instructions:\nreplay %+v\nseek   %+v", at, follow, a, b)
				}
			}
		})
	}
}

// TestSeekRefusesUnreachablePositions: a position the stream could not
// have reported is an error — never a panic, never a long discard — and
// leaves the stream where a fresh one starts.
func TestSeekRefusesUnreachablePositions(t *testing.T) {
	const seed, at = 5, 5_000
	for _, name := range []string{"lbm-94", "mcf-1554", "cactuBSSN-2421", "cassandra"} {
		w, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		s := w.New(seed)
		trace.Collect(s, at)
		good := s.(trace.Seeker).Position()
		slots := uint64(s.(*gen).loopSlots())
		edit := func(f func(p *trace.Position)) trace.Position {
			p := good
			p.Cursor = append([]uint64(nil), good.Cursor...)
			f(&p)
			return p
		}
		type refusal struct {
			what string
			p    trace.Position
			n    int64
		}
		cases := []refusal{
			{"another seed", edit(func(p *trace.Position) { p.Seed++ }), at},
			{"more draws than the instructions take", edit(func(p *trace.Position) { p.Draws = 1 << 40 }), at},
			{"a negative instruction count", good, -1},
			{"a slot past the loop body", edit(func(p *trace.Position) { p.Cursor[0] = slots }), at},
			{"a cut cursor", edit(func(p *trace.Position) { p.Cursor = p.Cursor[:len(p.Cursor)-1] }), at},
			{"a trailing cursor word", edit(func(p *trace.Position) { p.Cursor = append(p.Cursor, 0) }), at},
			{"a zeroed source cursor", edit(func(p *trace.Position) {
				for i := 5; i < len(p.Cursor); i++ {
					p.Cursor[i] = 0
				}
			}), at},
		}
		// Only a GS source draws at reset.
		if reset := w.New(seed).(trace.Seeker).Position().Draws; reset > 0 {
			cases = append(cases, refusal{"fewer draws than a reset takes", edit(func(p *trace.Position) { p.Draws = reset - 1 }), at})
		}
		for _, c := range cases {
			fresh := w.New(seed)
			if err := fresh.(trace.Seeker).Seek(c.p, c.n); err == nil {
				t.Errorf("%s: Seek accepted %s", name, c.what)
				continue
			}
			want, got := trace.Collect(w.New(seed), 100), trace.Collect(fresh, 100)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: after refusing %s the stream is not reset", name, c.what)
			}
		}
		if err := w.New(seed).(trace.Seeker).Seek(good, at); err != nil {
			t.Errorf("%s: the unedited position was refused: %v", name, err)
		}
	}
}
