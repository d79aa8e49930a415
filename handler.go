package repro

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/predict"
	"repro/internal/ring"
	"repro/internal/simtime"
)

// Handler is the consumer side of a pair: it receives each drained
// batch on the pair's core-manager goroutine, with a context that
// carries the invocation deadline when HandlerTimeout is set (and is
// Background otherwise). A non-nil error, a panic, or a deadline
// overrun all count as a failed invocation: the batch is retained and
// re-offered up to the Redelivery bound, and repeated failures open
// the circuit breaker (see Breaker).
//
// Handlers must not block for long — they serialize with the other
// consumers latched onto the same wakeups. Build one from a plain
// function with Func or Batch.
type Handler[T any] func(ctx context.Context, batch []T) error

// Func adapts an error-aware batch function into a Handler. It is the
// identity adaptor, provided so call sites read uniformly:
// Open(rt, Func(h)) next to Open(rt, Batch(h)).
func Func[T any](fn func(ctx context.Context, batch []T) error) Handler[T] {
	if fn == nil {
		panic("repro: nil handler func")
	}
	return fn
}

// Batch adapts an infallible batch function — one with nothing to
// report — into a Handler that always returns nil.
func Batch[T any](fn func(batch []T)) Handler[T] {
	if fn == nil {
		panic("repro: nil handler func")
	}
	return func(_ context.Context, batch []T) error {
		fn(batch)
		return nil
	}
}

// PairOption configures one pair at creation (see Open). Invalid
// arguments are reported as errors from Open, never silently clamped.
type PairOption func(*pairConfig)

type pairConfig struct {
	maxLatency     time.Duration
	handlerTimeout time.Duration
	breakerK       int
	maxRedeliver   int
	concurrent     bool
	errs           []error
}

// MaxLatency overrides the runtime-wide response-latency bound for
// this pair (the §IV model gives every consumer its own bound; the
// slot track stays shared). It must be at least the runtime's slot
// size; Open rejects anything smaller, including non-positive values.
func MaxLatency(d time.Duration) PairOption {
	return func(c *pairConfig) {
		if d <= 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: MaxLatency %v <= 0", d))
			return
		}
		c.maxLatency = d
	}
}

// HandlerTimeout arms a watchdog around every handler invocation: the
// batch context carries this deadline, and a handler that runs past it
// marks the pair degraded (PairSnapshot.Degraded), counts in
// Stats.HandlerTimeouts, and is treated as a failure by the circuit
// breaker — even if it eventually returns nil. The slot planner
// re-samples the clock after an overrun so the next reservation
// charges the stolen time instead of silently blowing other pairs'
// bounds. Zero (the default) disables the watchdog; negative values
// are rejected by Open.
func HandlerTimeout(d time.Duration) PairOption {
	return func(c *pairConfig) {
		if d < 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: HandlerTimeout %v < 0", d))
			return
		}
		c.handlerTimeout = d
	}
}

// Breaker sets K, the consecutive handler failures (panic, returned
// error, or deadline overrun) that open the pair's circuit breaker. An
// open breaker quarantines the pair: Put fails fast with
// ErrQuarantined and the manager only schedules half-open probes with
// exponential backoff; one successful probe closes the breaker.
// Default 3; k == 0 disables the breaker entirely (failures are
// counted but never quarantine); negative k is rejected by Open.
func Breaker(k int) PairOption {
	return func(c *pairConfig) {
		if k < 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: Breaker %d < 0 (use 0 to disable)", k))
			return
		}
		c.breakerK = k
	}
}

// Redelivery bounds how many times a failed batch is re-offered to the
// handler before being dropped (counted in Stats.ItemsDropped, and a
// drop record on the timeline). Default 3; n == 0 restores
// at-most-once delivery — a failed batch is dropped immediately;
// negative n is rejected by Open.
func Redelivery(n int) PairOption {
	return func(c *pairConfig) {
		if n < 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: Redelivery %d < 0 (use 0 for at-most-once)", n))
			return
		}
		c.maxRedeliver = n
	}
}

// ConcurrentProducers declares that multiple goroutines will call Put
// or PutBatch on this pair concurrently. By default a pair assumes the
// paper's contract — exactly one logical producer — and its wait-free
// queue takes no lock anywhere. With this option the queue is the same
// one, but Put and PutBatch serialise on a producer lock (one
// acquisition per call, so a batch pays it once), which is what e.g. a
// server fanning one stream across connection goroutines needs. The
// consumer never takes that lock: drains stay wait-free and never wait
// behind a producer. Steady-state Put stays allocation-free either
// way.
func ConcurrentProducers() PairOption {
	return func(c *pairConfig) { c.concurrent = true }
}

// Open registers a consumer with the runtime and returns its producer
// handle. handler receives each drained batch (see Handler; adapt a
// plain function with Func or Batch). Options default to: the
// runtime's MaxLatency, no handler watchdog, breaker K=3, redelivery
// bound 3, single producer. Invalid option arguments are reported
// here, joined, rather than silently adjusted.
func Open[T any](rt *Runtime, handler Handler[T], opts ...PairOption) (*Pair[T], error) {
	if handler == nil {
		panic("repro: nil handler")
	}
	o := rt.opts
	pc := pairConfig{maxLatency: o.maxLatency, breakerK: 3, maxRedeliver: 3}
	for _, f := range opts {
		f(&pc)
	}
	if len(pc.errs) > 0 {
		return nil, errors.Join(pc.errs...)
	}
	if pc.maxLatency < o.slotSize {
		return nil, fmt.Errorf("repro: pair max latency %v below slot size %v", pc.maxLatency, o.slotSize)
	}
	id, err := rt.addPair()
	if err != nil {
		return nil, err
	}
	// The pair's private pool is capped at the most the quota ledger
	// can ever lend one pair, B0 × MaxPairs, plus the segment a part-read
	// head can hold, so its ring backs every item its quota admits. The
	// pool makes segments only as the ring first needs them.
	segs := (o.maxPairs*o.buffer+o.segSize-1)/o.segSize + 1
	pool := ring.NewSegmentPool[T](segs, o.segSize)
	var q *ring.Segmented[T]
	if pc.concurrent {
		q = ring.NewSegmented(pool, o.buffer)
	} else {
		q = ring.NewSegmentedSP(pool, o.buffer)
	}
	p := &Pair[T]{
		rt:      rt,
		handler: handler,
		q:       q,
	}
	if !pc.concurrent {
		p.waiter = newWaiter()
	}
	planner := rt.planner
	if pc.maxLatency != o.maxLatency {
		own := *rt.planner
		own.MaxLatency = simtime.Duration(pc.maxLatency)
		planner = &own
	}
	st := &pairState{
		id:             id,
		pred:           predict.DefaultFactory(),
		planner:        planner,
		lastDrain:      rt.now(),
		pending:        p.q.Len,
		quota:          p.q.Quota,
		setQuota:       p.q.SetQuota,
		handlerTimeout: pc.handlerTimeout,
		breakerK:       pc.breakerK,
		maxRedeliver:   pc.maxRedeliver,
		baseBackoff:    simtime.Duration(o.slotSize),
		maxBackoff:     8 * simtime.Duration(pc.maxLatency),
		parked:         make([]chan struct{}, 0, 1), // a lone producer's first wait allocates nothing
	}
	st.mgr.Store(rt.managerFor(id))
	st.reservedSlot = -1
	st.drainFault = p.drainFault
	if rt.obs != nil && rt.obs.hist {
		st.obs = newPairObs(o.buffer, pc.concurrent)
		// Same once-for-the-pair's-life sizing for the latency-stamp
		// scratch: PopBatch returns at most the ring's capacity.
		p.stampScratch = make([]int64, st.obs.stamps.Cap())
	}
	p.st = st
	if pc.handlerTimeout > 0 {
		p.overran = make(chan struct{}, 1)
		p.watchdog = time.AfterFunc(time.Hour, p.overrun)
		p.watchdog.Stop()
	}
	rt.trackPair(st)
	return p, nil
}
