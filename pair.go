package repro

import (
	"context"
	"runtime/trace"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
)

// Pair is one producer-consumer pair: a bounded elastic buffer feeding
// a batch handler. By default exactly one goroutine may call
// Put/PutBatch at a time (the paper pairs each consumer with one
// producer, and the wait-free single-producer queue depends on it);
// pass ConcurrentProducers to Open when several goroutines share the
// producer side. The handler runs on the pair's core-manager
// goroutine.
type Pair[T any] struct {
	rt      *Runtime
	st      *pairState
	q       *ring.Segmented[T]
	handler func(context.Context, []T) error

	// drainMu serializes drains. They normally all happen on the
	// manager goroutine, but quarantine probes run on their own
	// goroutine, and Pair.Close racing Runtime.Close can fall back to
	// draining on the caller while the manager's final drain is still
	// running.
	drainMu sync.Mutex
	scratch []T
	// retry holds a batch whose handler invocation failed, awaiting
	// bounded redelivery (guarded by drainMu; mirrored in the
	// st.retained atomic for lock-free snapshots).
	retry         []T
	retryAttempts int

	// Latency instrumentation scratch (guarded by drainMu like retry):
	// stampScratch holds the enqueue stamps popped for the batch being
	// drained; retryStamps holds the stamps of a retained batch so a
	// redelivered item's done-latency covers its retry delay too. Both
	// stay empty unless the runtime was built WithHistograms.
	stampScratch []int64
	retryStamps  []int64

	// waiter is the single producer's reused AwaitDrain state; nil with
	// ConcurrentProducers, whose producers each make their own.
	waiter *waiter

	// The handler watchdog, built at Open when HandlerTimeout is set and
	// re-armed by each invocation that runs the handler (guarded by
	// drainMu): watchdog is a stopped timer whose function is overrun,
	// overran receives one token per overrun that fired, and
	// watchedItems is the batch size the overrun records.
	watchdog     *time.Timer
	overran      chan struct{}
	watchedItems int
}

// ID returns the pair's runtime-assigned id, the key that joins this
// pair to its Runtime.PairSnapshots entry and its timeline records.
func (p *Pair[T]) ID() int { return p.st.id }

// drainFault runs one fault-isolated consumer invocation: redeliver a
// previously failed batch first (those items are older than anything
// still queued, preserving FIFO), then drain and deliver the fresh
// batch. Failed batches are retained for bounded redelivery unless
// mode is drainFinal (shutdown/close paths, where retention would
// strand items): then they are dropped and accounted in
// Stats.ItemsDropped. Every item that entered the pair leaves as
// ItemsOut or ItemsDropped, never silently.
//
// Every counter a drain moves, the invocation included, is written
// under drainMu. A half-open probe drains off the manager goroutine; a
// closing pair's final drain takes the lock after it, so the probe's
// counts land before the pair retires (see shut). Each counted
// invocation is one drain record on the timeline, whatever path ran it;
// wake is the Seq of the fire that caused it, 0 for none.
func (p *Pair[T]) drainFault(mode drainMode, wake uint64) (rep drainReport) {
	final := mode == drainFinal
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	defer func() {
		if rep.attempted > 0 || mode == drainWake {
			p.st.invocations.Add(1)
			p.rt.record(obs.KindDrain, p.st.mgr.Load().id, p.st.id, wake, rep.delivered)
		}
	}()

	if len(p.retry) > 0 {
		p.retryAttempts++
		p.st.redeliveries.Add(1)
		if p.invoke(p.retry, &rep) {
			p.deliver(len(p.retry), &rep)
			// Redelivered items' done-latency spans the retry delay:
			// their stamps were kept alongside the retained batch.
			p.recordDone(p.retryStamps)
			p.clearRetry()
		} else if final || p.retryAttempts >= p.st.maxRedeliver {
			p.dropBatch(len(p.retry), &rep)
			p.clearRetry()
			if !final {
				return rep
			}
		} else {
			// Keep the batch for the next redelivery slot or probe.
			return rep
		}
	}

	batch := p.q.DrainTo(p.scratch[:0])
	// The quota is free: waiting producers refill it while the handler
	// runs (an empty drain too — an earlier one may have beaten them).
	p.st.wakeProducers()
	// scratch starts empty and DrainTo grows it in powers of two: it
	// settles within 2× of the pair's largest drain, not at the arena's
	// ceiling, and steady-state drains reuse it without allocating.
	p.scratch = batch
	rep.dequeued = len(batch)
	if len(batch) == 0 {
		return rep
	}
	stamps := p.recordWait(len(batch))
	switch {
	case p.invoke(batch, &rep):
		p.deliver(len(batch), &rep)
		p.recordDone(stamps)
	case final || p.st.maxRedeliver <= 0:
		p.dropBatch(len(batch), &rep)
	default:
		// Retain a copy for redelivery: batch aliases scratch, which the
		// next drain reuses (likewise stamps and stampScratch).
		p.retry = append(p.retry[:0], batch...)
		p.retryStamps = append(p.retryStamps[:0], stamps...)
		p.retryAttempts = 0
		p.st.retained.Store(int64(len(batch)))
	}
	// The handler has returned and any redelivery copy is taken: zero
	// the scratch so it does not keep the batch's payloads reachable
	// until the next drain overwrites them (the ring zeroes consumed
	// slots for the same reason).
	clear(batch)
	return rep
}

// recordWait pops the enqueue stamps of the batch being drained (the
// drain empties the whole queue, so every ring stamp belongs to it —
// at the sampling stride that is at most n/LatencySampleEvery, and
// fewer when the ring overflowed; the drop is counted there) and
// records each sampled item's wait (enqueue→handler-start) latency.
// Pairing is by position, which only matters to the histogram, not to
// the items. Nil unless WithHistograms.
func (p *Pair[T]) recordWait(n int) []int64 {
	po := p.st.obs
	if po == nil || n == 0 {
		return nil
	}
	s := p.stampScratch[:min(n, len(p.stampScratch))]
	s = s[:po.stamps.PopBatch(s)]
	start := p.rt.obs.clock.Precise()
	for _, t := range s {
		po.wait.Record(start - t)
	}
	return s
}

// recordDone records each delivered item's done (enqueue→handler-done)
// latency for the stamps captured by recordWait.
func (p *Pair[T]) recordDone(stamps []int64) {
	po := p.st.obs
	if po == nil || len(stamps) == 0 {
		return
	}
	end := p.rt.obs.clock.Precise()
	for _, t := range stamps {
		po.done.Record(end - t)
	}
}

// invoke hands one batch to the handler under panic recovery and, when
// HandlerTimeout is set, a watchdog. It reports whether the
// batch was handled cleanly; failures (panic, error, overrun) are
// charged to the pair's and runtime's counters here.
func (p *Pair[T]) invoke(batch []T, rep *drainReport) bool {
	rep.attempted += len(batch)
	ctx := context.Background()
	if trace.IsEnabled() {
		// Task + region let `go tool trace` attribute handler time to
		// this pair; the Logf carries the batch size.
		var task *trace.Task
		ctx, task = trace.NewTask(ctx, "pbpl.invoke")
		defer task.End()
		trace.Logf(ctx, "pbpl", "pair=%d batch=%d", p.st.id, len(batch))
		defer trace.StartRegion(ctx, "pbpl.handler").End()
	}
	if d := p.st.handlerTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
		p.watchedItems = len(batch)
		p.watchdog.Reset(d)
		defer func() {
			if !p.watchdog.Stop() {
				<-p.overran // count the overrun inside this drain, not after it
			}
		}()
	}
	start := time.Now()
	panicked := false
	err := func() (err error) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		return p.handler(ctx, batch)
	}()
	overran := p.st.handlerTimeout > 0 && time.Since(start) >= p.st.handlerTimeout
	if panicked {
		p.st.panics.Add(1)
	}
	if err != nil {
		p.st.herrors.Add(1)
	}
	if overran {
		rep.timedOut = true
	}
	if panicked || err != nil || overran {
		rep.failed = true
		return false
	}
	return true
}

// overrun is the watchdog's function: the handler is still running past
// its deadline. It flags the overrun now (not at return, which may
// never come) so snapshots and the timeline see it while it happens.
func (p *Pair[T]) overrun() {
	p.st.degraded.Store(true)
	p.st.timeouts.Add(1)
	p.rt.record(obs.KindOverrun, p.st.mgr.Load().id, p.st.id, 0, p.watchedItems)
	p.overran <- struct{}{}
}

// deliver credits n successfully handled items.
func (p *Pair[T]) deliver(n int, rep *drainReport) {
	rep.delivered += n
	p.st.itemsOut.Add(uint64(n))
}

// dropBatch accounts n discarded items (redelivery exhausted, or a
// failure on a final drain).
func (p *Pair[T]) dropBatch(n int, rep *drainReport) {
	rep.dropped += n
	p.st.dropped.Add(uint64(n))
	p.rt.record(obs.KindDrop, p.st.mgr.Load().id, p.st.id, 0, n)
}

func (p *Pair[T]) clearRetry() {
	clear(p.retry) // as in drainFault: do not pin the batch's payloads
	p.retry = p.retry[:0]
	p.retryStamps = p.retryStamps[:0]
	p.retryAttempts = 0
	p.st.retained.Store(0)
}

// Put buffers one item. It never blocks: when the pair's elastic quota
// is exhausted it forces an immediate drain (the paper's overflow
// wakeup) and returns ErrOverflow without enqueueing — retry or shed.
// On a quarantined pair (open circuit breaker) Put fails fast with
// ErrQuarantined instead of buffering items that cannot drain — except
// in the brief window once the next half-open probe is due, when items
// are admitted as probe fodder so a recovered handler can prove itself.
func (p *Pair[T]) Put(v T) error {
	if p.st.closed.Load() || p.rt.closed.Load() {
		return ErrClosed
	}
	if p.st.quarantined.Load() && !p.st.probeDue(p.rt.now()) {
		return ErrQuarantined
	}
	// Count before publishing (and take it back on overflow): a drain
	// may credit ItemsOut the instant the item is visible, and a
	// snapshot must never read Out ahead of In.
	n := p.st.itemsIn.Add(1)
	if !p.q.Push(v) {
		p.st.itemsIn.Add(^uint64(0))
		p.st.overflows.Add(1)
		p.forceDrain()
		return ErrOverflow
	}
	if po := p.st.obs; po != nil && n&stampSampleMask == 0 {
		po.stamp(p.rt.obs.clock.Now(), 1)
	}
	if p.rt.closed.Load() {
		// Runtime.Close raced in after the entry check, so its final
		// sweep may already have run: drain on the caller rather than
		// strand the item. The item was accepted and handled, so report
		// success.
		p.drainFault(drainFinal, 0)
		return nil
	}
	p.kickIfUnarmed()
	return nil
}

// PutBatch buffers up to len(items) items with a single quota
// negotiation and at most one manager kick, where a Put loop pays an
// armed-check (and possibly a kick) per item. It returns how many
// items were accepted. n < len(items) comes with ErrOverflow (the
// quota filled; a forced drain is already underway — retry the rest or
// shed); n == 0 with ErrClosed or ErrQuarantined mirrors Put.
func (p *Pair[T]) PutBatch(items []T) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	if p.st.closed.Load() || p.rt.closed.Load() {
		return 0, ErrClosed
	}
	if p.st.quarantined.Load() && !p.st.probeDue(p.rt.now()) {
		return 0, ErrQuarantined
	}
	// Counted before publishing, as in Put; the rejected tail is taken
	// back below.
	want := uint64(len(items))
	end := p.st.itemsIn.Add(want)
	n := p.q.PushBatch(items)
	rejected := want - uint64(n)
	if rejected > 0 {
		p.st.itemsIn.Add(-rejected)
		end -= rejected
	}
	if n > 0 {
		if po := p.st.obs; po != nil {
			// One stamp per sampling-stride boundary the batch crossed.
			k := int(end>>stampSampleShift) - int((end-uint64(n))>>stampSampleShift)
			if k > 0 {
				po.stamp(p.rt.obs.clock.Now(), k)
			}
		}
		if p.rt.closed.Load() {
			// Same close race as Put: drain on the caller.
			p.drainFault(drainFinal, 0)
		} else {
			p.kickIfUnarmed()
		}
	}
	if rejected > 0 {
		p.st.overflows.Add(rejected)
		p.forceDrain()
		return n, ErrOverflow
	}
	return n, nil
}

// kickIfUnarmed arms the pair and wakes its manager if no reservation
// is pending.
func (p *Pair[T]) kickIfUnarmed() {
	if !p.st.armed.Swap(true) {
		p.st.kicks.Add(1)
		mgr := p.st.mgr.Load()
		select {
		case mgr.kick <- p.st:
		case <-mgr.done:
			p.st.armed.Store(false)
		}
	}
}

// forceDrain requests a forced drain, coalescing requests. It reports
// false when the pair's manager has shut down.
func (p *Pair[T]) forceDrain() bool {
	if !p.st.forcePending.Swap(true) {
		mgr := p.st.mgr.Load()
		select {
		case mgr.force <- p.st:
		case <-mgr.done:
			p.st.forcePending.Store(false)
			return false
		}
	}
	return true
}

// PairStats is a snapshot of one pair's counters.
type PairStats struct {
	ItemsIn     uint64
	ItemsOut    uint64
	Invocations uint64
	Overflows   uint64
	// Kicks counts producer wake-ups of the manager (first item into an
	// unarmed pair). PutBatch pays at most one per call.
	Kicks uint64
	// Panics / Errors / Timeouts count handler failures by kind
	// (recovered panics, non-nil returns, watchdog deadline overruns).
	Panics   uint64
	Errors   uint64
	Timeouts uint64
	// Quarantines counts breaker-open transitions; Redeliveries counts
	// re-offered failed batches; Dropped counts items discarded after
	// redelivery exhaustion (ItemsIn == ItemsOut + Dropped + HandedOff
	// once closed).
	Quarantines  uint64
	Redeliveries uint64
	Dropped      uint64
	// HandedOff counts items extracted unprocessed by Pair.Handoff for
	// cross-process migration.
	HandedOff uint64
}

// Stats returns a snapshot of the pair's counters.
func (p *Pair[T]) Stats() PairStats {
	return p.st.pairStats()
}

// Len returns the number of buffered items (excluding a failed batch
// retained for redelivery; see Runtime.PairSnapshots' Retained).
func (p *Pair[T]) Len() int { return p.q.Len() }

// Quota returns the pair's current elastic buffer capacity.
func (p *Pair[T]) Quota() int { return p.q.Quota() }

// Quarantined reports whether the pair's circuit breaker is open.
func (p *Pair[T]) Quarantined() bool { return p.st.quarantined.Load() }

// Close drains any remaining items through the handler, releases the
// pair's pool capacity and detaches it from its manager. Further Puts
// return ErrClosed. A batch that fails during this final drain is
// dropped and accounted (never retained), so after Close the pair's
// ItemsIn == ItemsOut + Dropped. Close is idempotent.
//
// Close must not race the pair's own producers: a Put or PutBatch
// still in flight when Close begins is outside the contract, and its
// item may be left undrained.
func (p *Pair[T]) Close() error {
	p.shut(func() { p.drainFault(drainFinal, 0) })
	return nil
}

// shut closes the pair once, reporting false if it already was: it wakes
// waiting producers, runs final on the owning manager with the pair off
// its calendar (or here, once the managers' goroutines have exited: they
// drained every pair they knew, so final catches only what is left), and
// unregisters the pair. Its counters retire then, so final counts
// whatever it moves before returning, and no manager is left to count
// more.
func (p *Pair[T]) shut(final func()) bool {
	if p.st.closed.Swap(true) {
		return false
	}
	p.st.wakeProducers()
	if !p.st.runOnOwner(func(m *manager) {
		m.deregister(p.st)
		final()
	}) {
		for _, m := range p.rt.managers {
			<-m.exited // the pair's owner, even one a migration just made
		}
		final()
	}
	p.rt.removePair(p.st)
	return true
}
