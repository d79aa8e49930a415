package repro

import (
	"sync/atomic"
	"time"
)

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
	// Parked, so every drain, close or quarantine from here on signals w
	// (Runtime.Close too, once its flag is set). Once the manager has
	// taken the overflow's force, its drain may have come and gone before
	// that: retry.
	if !st.forcePending.Load() || st.closed.Load() || st.quarantined.Load() || p.rt.closed.Load() {
		return true
	}
	// The stall timer signals the same channel, so the wait parks on one
	// channel (two with a stop): each costs the scheduler a sudog.
	deadline := time.Now().Add(stall)
	w.timer.Reset(stall)
	defer w.timer.Stop()
	select {
	case <-w.wake:
	case <-stop:
		return false
	}
	// Woken by a drain, close or quarantine (the retry reports which) or
	// by a previous wait's late timer: retry. Past its own bound, retry
	// only if the manager completed an invocation meanwhile.
	return !w.expired.Swap(false) || time.Now().Before(deadline) ||
		st.mgr.Load() != mgr || mgr.drains.Load() != progress
}

// waiter is a producer's AwaitDrain state: the channel a drain or its
// stall timer signals it on, and the flag that tells the two apart.
type waiter struct {
	wake    chan struct{}
	timer   *time.Timer // stopped between waits
	expired atomic.Bool
}

// newWaiter builds the stall timer up front, so no wait allocates it.
func newWaiter() *waiter {
	w := &waiter{wake: make(chan struct{}, 1)}
	w.timer = time.AfterFunc(time.Hour, func() {
		w.expired.Store(true)
		select {
		case w.wake <- struct{}{}:
		default:
		}
	})
	w.timer.Stop()
	return w
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
