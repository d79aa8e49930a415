package repro

import "time"

// PutWait buffers one item, waiting out a full pair on the drain each
// overflow forces (AwaitDrain). timeout is AwaitDrain's stall bound, not
// a deadline: a busy consumer delays PutWait, and only one whose manager
// completes no invocation for a whole timeout makes it return
// ErrOverflow. A zero or negative timeout makes a single attempt, like
// Put. A closed or quarantined pair fails fast (quarantine outlasts any
// reasonable timeout), so callers shed or reroute instead.
func (p *Pair[T]) PutWait(v T, timeout time.Duration) error {
	for {
		err := p.Put(v)
		if err != ErrOverflow || timeout <= 0 || !p.AwaitDrain(timeout, nil) {
			return err
		}
	}
}

// AwaitDrain blocks a producer whose Put or PutBatch just returned
// ErrOverflow until the manager drains the pair, the pair closes or is
// quarantined — true: offer the items again, the retry reports which —
// or until stop fires or the manager completes no invocation, for any
// of its pairs, for stall — false: shed them. A manager busy elsewhere
// is not a stall: AwaitDrain then returns true and the retry re-forces
// the drain. A nil stop never fires. One drain wakes every producer
// parked before it, once; nothing polls. Without ConcurrentProducers
// only one goroutine may wait at a time, and the wait allocates nothing.
func (p *Pair[T]) AwaitDrain(stall time.Duration, stop <-chan struct{}) bool {
	st := p.st
	w := p.waiter
	if w == nil {
		w = newWaiter()
	}
	st.park(w.wake)
	defer st.unpark(w.wake)
	mgr := st.mgr.Load()
	progress := mgr.drains.Load()
	// Parked, so every drain from here on signals w. Once the manager has
	// taken the overflow's force, its drain may have come and gone before
	// that: retry.
	if !st.forcePending.Load() || st.closed.Load() || st.quarantined.Load() {
		return true
	}
	w.timer.Reset(stall)
	defer stopTimer(w.timer)
	select {
	case <-w.wake:
		return true
	case <-mgr.done:
		return true // runtime closed: the retry reports ErrClosed
	case <-stop:
		return false
	case <-w.timer.C:
		return st.mgr.Load() != mgr || mgr.drains.Load() != progress
	}
}

// waiter is a producer's AwaitDrain state: the channel a drain signals
// it on, and its stall timer (stopped, so Reset can arm it).
type waiter struct {
	wake  chan struct{}
	timer *time.Timer
}

func newWaiter() *waiter {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{wake: make(chan struct{}, 1), timer: t}
}

// stopTimer stops t and empties its channel so Reset can rearm it.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// Flush asks the pair's core manager to drain buffered items now
// instead of waiting for the reserved slot. It returns immediately;
// the drain happens on the manager goroutine and is counted as a
// forced wakeup. Useful before latency-sensitive checkpoints.
func (p *Pair[T]) Flush() error {
	if p.st.closed.Load() || p.rt.closed.Load() {
		return ErrClosed
	}
	if p.st.quarantined.Load() {
		// A forced drain cannot jump the breaker's probe schedule.
		return ErrQuarantined
	}
	if !p.forceDrain() {
		return ErrClosed
	}
	return nil
}
