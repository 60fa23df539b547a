package experiments

import "sync"

// writeBehind is the Session's persistence queue. A checkpoint or a
// snapshot spill is a cache entry, not an acknowledgement: nothing waits
// for it to be correct, so the run that produced the value publishes it
// (waking coalesced waiters, returning to its job) and only then hands
// the write — two fsyncs and, on a worker, a PUT to the coordinator — to
// this queue. A crash between publish and persist costs a re-simulation
// in the next life and nothing else.
//
// At most one writer goroutine exists per Session, started by the
// enqueue that finds none and exiting when the queue empties, so writes
// land in submission order and an idle Session owns no goroutine. The
// zero value is ready to use. Session.Flush is the barrier a process
// passes before it exits.
type writeBehind struct {
	mu      sync.Mutex
	queue   []func()
	pending int           // queued writes plus the one in progress; > 0 iff a writer exists
	drained chan struct{} // closed when pending next drops to zero
}

// enqueue schedules write behind everything already queued.
func (w *writeBehind) enqueue(write func()) {
	w.mu.Lock()
	start := w.pending == 0
	if start {
		w.drained = make(chan struct{})
	}
	w.queue = append(w.queue, write)
	w.pending++
	w.mu.Unlock()
	if start {
		go w.drain()
	}
}

// drain is the writer goroutine: it runs queued writes, one at a time
// and outside the lock, until none are left. The last decrement and the
// loop's exit test share one hold of the lock, so the writer is gone
// exactly when pending is zero and the next enqueue starts a new one.
func (w *writeBehind) drain() {
	w.mu.Lock()
	for len(w.queue) > 0 {
		write := w.queue[0]
		w.queue[0] = nil
		w.queue = w.queue[1:]
		w.mu.Unlock()
		write()
		w.mu.Lock()
		if w.pending--; w.pending == 0 {
			close(w.drained)
		}
	}
	w.mu.Unlock()
}

// flush blocks until every write enqueued so far has finished.
func (w *writeBehind) flush() {
	w.mu.Lock()
	pending, drained := w.pending, w.drained
	w.mu.Unlock()
	if pending > 0 {
		<-drained
	}
}

// depth is the number of writes not yet finished.
func (w *writeBehind) depth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// Flush blocks until every checkpoint and snapshot spill produced by a
// run that has already returned is on disk (and pushed to the remote
// blob store, when one is attached). Run returns before its result is
// persisted; a process that wants its next life to resume from the
// cache directory calls Flush before it exits — ipcpd at the end of a
// drain, cmd/experiments on the way out, SIGINT included. Failed writes
// count under SessionStats.StoreFailures as before; Flush does not
// return them, because no result depends on them.
func (s *Session) Flush() {
	s.saves.flush()
}
