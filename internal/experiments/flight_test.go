package experiments

import (
	"context"
	"errors"
	"testing"
)

// TestFlightCancelledLeaderHandsOverToLiveWaiter: a leader that returns
// context.Canceled after a waiter has joined removes its entry before
// publishing, so the waiter — whose own context is live — leads next
// and gets the value instead of the leader's interruption.
func TestFlightCancelledLeaderHandsOverToLiveWaiter(t *testing.T) {
	var f flight[int]
	bg := context.Background()
	leading := make(chan struct{})
	waiterJoined := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, how, err := f.do(bg, bg, "k", func() { t.Error("leader joined") }, func() (int, error) {
			close(leading)
			<-waiterJoined
			return 0, context.Canceled
		})
		if how != flightLed {
			t.Errorf("first caller's role = %d, want led", how)
		}
		leaderDone <- err
	}()
	<-leading

	joins := 0
	v, how, err := f.do(bg, bg, "k", func() {
		if joins++; joins == 1 {
			close(waiterJoined)
		}
	}, func() (int, error) { return 42, nil })
	if err != nil || v != 42 || how != flightLed {
		t.Fatalf("waiter after a cancelled leader = (%d, %d, %v), want (42, led, nil)", v, how, err)
	}
	if joins != 1 {
		t.Errorf("waiter joined %d times, want 1", joins)
	}
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader's own error = %v, want context.Canceled", err)
	}
	if v, how, err := f.do(bg, bg, "k", func() { t.Error("joined a resolved entry") }, func() (int, error) {
		t.Error("re-led a resolved entry")
		return 0, nil
	}); v != 42 || how != flightHit || err != nil {
		t.Errorf("after the hand-over = (%d, %d, %v), want (42, hit, nil)", v, how, err)
	}
}

// TestFlightMemoizesNonFatalError: a failure that is not a cancellation
// is the key's answer; the next caller is a hit with the same error.
func TestFlightMemoizesNonFatalError(t *testing.T) {
	var f flight[int]
	bg := context.Background()
	boom := errors.New("boom")
	if _, how, err := f.do(bg, bg, "k", func() {}, func() (int, error) { return 0, boom }); how != flightLed || err != boom {
		t.Fatalf("leader = (%d, %v), want (led, boom)", how, err)
	}
	_, how, err := f.do(bg, bg, "k", func() { t.Error("joined a resolved entry") }, func() (int, error) {
		t.Error("a memoized error was recomputed")
		return 1, nil
	})
	if how != flightHit || err != boom {
		t.Fatalf("second caller = (%d, %v), want (hit, boom)", how, err)
	}
}

// TestFlightWaiterContextEndsAlone: a waiter whose own context ends
// gets its own context's error, and the leader's entry stays in flight —
// a later caller joins it rather than leading a second computation.
func TestFlightWaiterContextEndsAlone(t *testing.T) {
	var f flight[int]
	bg := context.Background()
	release := make(chan struct{})
	leading := make(chan struct{})
	leaderDone := make(chan int, 1)
	go func() {
		v, _, _ := f.do(bg, bg, "k", func() {}, func() (int, error) {
			close(leading)
			<-release
			return 7, nil
		})
		leaderDone <- v
	}()
	<-leading

	ctx, cancel := context.WithCancel(bg)
	_, how, err := f.do(ctx, bg, "k", cancel, func() (int, error) {
		t.Error("a waiter led while the leader was in flight")
		return 0, nil
	})
	if how != flightJoined || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = (%d, %v), want (joined, context.Canceled)", how, err)
	}

	late := make(chan int, 1)
	lateJoined := make(chan struct{})
	go func() {
		v, how, err := f.do(bg, bg, "k", func() { close(lateJoined) }, func() (int, error) {
			t.Error("the leader's entry was dropped with the waiter")
			close(lateJoined)
			return 0, nil
		})
		if how != flightJoined || err != nil {
			t.Errorf("late caller = (%d, %v), want (joined, nil)", how, err)
		}
		late <- v
	}()
	<-lateJoined
	close(release)
	if v := <-leaderDone; v != 7 {
		t.Errorf("leader = %d, want 7", v)
	}
	if v := <-late; v != 7 {
		t.Errorf("late caller = %d, want 7", v)
	}
}
