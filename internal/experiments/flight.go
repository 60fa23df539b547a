package experiments

import (
	"cmp"
	"context"
	"sync"
)

// flight is the Session's single-flight memo: one entry per key, entered
// the moment a caller commits to computing the key's value, before the
// work starts. The result cache (keyed by memo key) and the warmup
// snapshot store (keyed by WarmupKey) are its two instances, so both
// share one protocol:
//
//   - a resolved entry is a hit;
//   - an entry in flight is joined: the caller waits until it resolves,
//     or until its own context or the session's ends;
//   - an interruption (see Interrupted) is removed before it is
//     published, so a waiter whose contexts are still live retries as
//     the new leader instead of inheriting an interruption that wasn't
//     its own — cancellation is never memoized;
//   - every other outcome, errors included, is memoized, so a failing
//     key reports the same fault everywhere instead of recomputing it.
//
// The zero value is ready to use.
type flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightEntry[V]
}

type flightEntry[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// role is how a flight.do call was satisfied.
type role int

const (
	flightHit    role = iota // the entry had already resolved
	flightJoined             // waited on another caller's lead
	flightLed                // computed the value itself
)

// do returns key's value. join is called (outside the lock) each time
// the caller joins an entry in flight; lead computes the value when the
// caller is its leader. Only the leader sees flightLed, and it sees it
// after the value is published to every waiter, so whatever it does next
// (a write-behind save, say) never delays them.
func (f *flight[V]) do(ctx, sctx context.Context, key string, join func(), lead func() (V, error)) (V, role, error) {
	var zero V
	for {
		f.mu.Lock()
		e, ok := f.m[key]
		if !ok {
			break
		}
		select {
		case <-e.done:
			f.mu.Unlock()
			return e.val, flightHit, e.err
		default:
		}
		f.mu.Unlock()
		join()
		select {
		case <-e.done:
		case <-ctx.Done():
			return zero, flightJoined, ctx.Err()
		case <-sctx.Done():
			return zero, flightJoined, sctx.Err()
		}
		if !Interrupted(e.err) {
			return e.val, flightJoined, e.err
		}
		if err := cmp.Or(ctx.Err(), sctx.Err()); err != nil {
			return zero, flightJoined, err
		}
	}
	// Still holding mu: nothing is in flight for key, so lead it — unless
	// this caller is already dead.
	if err := cmp.Or(ctx.Err(), sctx.Err()); err != nil {
		f.mu.Unlock()
		return zero, flightLed, err
	}
	if f.m == nil {
		f.m = make(map[string]*flightEntry[V])
	}
	e := &flightEntry[V]{done: make(chan struct{})}
	f.m[key] = e
	f.mu.Unlock()

	e.val, e.err = lead()
	if Interrupted(e.err) {
		f.forget(key)
	}
	close(e.done)
	return e.val, flightLed, e.err
}

// forget drops key's entry, so the next do for key leads again. The
// snapshot store's residency cap evicts this way; it forgets only
// entries that have resolved.
func (f *flight[V]) forget(key string) {
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
}
