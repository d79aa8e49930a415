package core

import (
	"repro/internal/buffer"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// consumer is the autonomous PBPL consumer of §V-C in the simulator:
// "on a principal level all consumers behave identically and are
// designed to be autonomous. The scheduling aspect of the consumer
// invocation should not be dictated by the system." All reservation
// decisions are delegated to the shared Planner; this type only wires
// the planner to the event loop, the machine and the buffer pool.
type consumer struct {
	id      int
	cm      *coreManager
	cmIndex int // index of cm in the managers slice (placement identity)
	core    *sim.Core
	loop    *simtime.Loop
	pool    *buffer.Pool
	pred    predict.Predictor
	m       *metrics.Collector
	planner *Planner

	buf       ring.Queue[simtime.Time]
	quota     int // current buffer capacity Bi
	traceSink *metrics.InvocationTrace

	reservedSlot int64 // -1 when none pending
	lastInvoke   simtime.Time

	perItemWork    simtime.Duration
	invokeOverhead simtime.Duration

	// Fault injection (nil inj: healthy consumer, zero-cost path).
	inj             *faults.Injector
	quarantineAfter int // breaker K; 0 disables
	consecFails     int
	quarantined     bool
}

// onArrival is the producer side: buffer the item; a full buffer forces
// an unscheduled invocation (overflow); an un-reserved consumer arms
// itself.
func (c *consumer) onArrival(at simtime.Time) {
	c.m.Produced++
	if c.quarantined {
		// Breaker open: the item is refused on admission (the live
		// runtime's ErrQuarantined fast-fail) — no buffering, no
		// reservation, so the hosting core never wakes for this pair.
		c.m.Dropped++
		return
	}
	c.buf.Push(at)
	if c.buf.Len() >= c.quota {
		c.m.Overflows++
		c.invoke(false)
		return
	}
	if c.reservedSlot < 0 {
		c.reserveNext()
	}
}

// invoke drains the buffer, updates the rate prediction, resizes, and
// reserves the next slot — the consumer column of Fig. 7.
func (c *consumer) invoke(scheduled bool) {
	if !scheduled {
		// Overflow path: the pending reservation is stale.
		c.cm.deregister(c)
	}
	c.drainNow(scheduled)
	c.reserveNext()
}

// drainNow is the drain half of an invocation: consume the batch, run
// the service cost on the hosting core, and observe the rate
// r_j = |γ(τ_{j-1}, τ_j)| / (τ_j − τ_{j-1}).
//
// With fault injection, the injector decides the invocation's fate
// before delivery: a failed invocation (panic, error, or stall) still
// pays its service cost — the handler ran — and a stall burns
// Profile.Stall of extra active time, but its batch is dropped rather
// than consumed. quarantineAfter consecutive failures open the
// breaker: the consumer deregisters and refuses all further arrivals.
func (c *consumer) drainNow(scheduled bool) {
	now := c.loop.Now()
	batch := c.buf.Drain()
	c.traceSink.Log(c.id, now, scheduled, len(batch))
	c.m.Invocations++
	var d faults.Decision
	if c.inj != nil && len(batch) > 0 {
		d = c.inj.Next()
	}
	c.core.RunFor(c.invokeOverhead + simtime.Duration(len(batch))*c.perItemWork)
	if d.Stall > 0 {
		c.core.RunFor(simtime.Duration(d.Stall))
	}
	if d.Clean() {
		c.m.Consume(now, batch)
		if len(batch) > 0 {
			c.consecFails = 0
		}
	} else {
		c.m.Dropped += uint64(len(batch))
		c.consecFails++
		if c.quarantineAfter > 0 && c.consecFails >= c.quarantineAfter {
			c.quarantined = true
			c.m.Quarantines++
			c.cm.deregister(c)
			// Release the buffer quota down to the pool floor: a
			// quarantined consumer buffers nothing, so its share of Bg
			// goes back behind the elastic walls for healthy pairs.
			c.quota = c.requestQuota(0)
		}
	}
	if dt := now.Sub(c.lastInvoke); dt > 0 {
		c.pred.Observe(float64(len(batch)) / dt.Seconds())
	}
	c.lastInvoke = now
}

// migrate moves the consumer to another core manager, mirroring the
// live runtime's protocol: drop the reservation, quiesce-drain any
// buffered items on the source core (so no item's batch crosses the
// move and its service cost lands where the items actually waited),
// then re-plan on the target.
func (c *consumer) migrate(to *coreManager, toIdx int) {
	if c.cm == to {
		return
	}
	c.cm.deregister(c)
	if !c.quarantined && c.buf.Len() > 0 {
		c.drainNow(false)
	}
	c.cm, c.core, c.cmIndex = to, to.core, toIdx
	c.reserveNext()
}

// flush consumes whatever remains at the end of the run. A quarantined
// consumer's leftovers are dropped, not delivered — its handler is
// known-broken (this arises only when the breaker opened with items
// still buffered, which the drain-then-quarantine order precludes; the
// guard keeps conservation honest regardless).
func (c *consumer) flush() {
	if c.buf.Len() == 0 {
		return
	}
	if c.quarantined {
		c.m.Dropped += uint64(len(c.buf.Drain()))
		return
	}
	now := c.loop.Now()
	batch := c.buf.Drain()
	c.m.Invocations++
	c.m.Consume(now, batch)
	c.core.RunFor(c.invokeOverhead + simtime.Duration(len(batch))*c.perItemWork)
}

// reserveNext delegates to the shared planner and applies its decision.
func (c *consumer) reserveNext() {
	if c.quarantined {
		return
	}
	now := c.loop.Now()
	plan := c.planner.Next(now, c.pred.Predict(), c.buf.Len(), &c.cm.cal, c.requestQuota)
	if !plan.Reserve {
		return
	}
	if plan.Quota >= 0 {
		c.quota = plan.Quota
	}
	c.cm.reserve(c, plan.Slot)
}

// requestQuota negotiates capacity with the global pool (Fig. 8).
func (c *consumer) requestQuota(want int) int {
	return c.pool.Request(c.id, want)
}
