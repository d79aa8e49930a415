package repro

import (
	"context"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/simtime"
	"repro/internal/track"
)

// drainReport is the outcome of one fault-isolated drain
// (Pair.drainFault): how many items were offered to the handler, how
// many it completed, how many were discarded, and how the invocation
// failed, if it did.
type drainReport struct {
	// attempted is the number of items handed to the handler
	// (redelivered + fresh); zero means the handler never ran.
	attempted int
	// delivered is the number of items the handler completed cleanly.
	delivered int
	// dropped is the number of items discarded (redelivery exhausted,
	// or a failure on a final drain).
	dropped int
	// dequeued is the number of fresh items popped from the queue this
	// call — the rate-predictor signal (redelivered items were already
	// dequeued by an earlier drain).
	dequeued int
	// failed is true when any invocation panicked, returned an error,
	// or overran its deadline.
	failed bool
	// timedOut is true when an invocation overran its
	// HandlerTimeout deadline (the caller should re-sample the
	// clock: the handler stole that time from the manager goroutine).
	timedOut bool
}

// pairState is the manager-side, type-erased view of a pair. Except for
// the atomic flags, all fields are owned by the manager goroutine.
type pairState struct {
	id int
	// mgr is the manager currently owning the pair. It only changes on
	// the owning manager's goroutine (see Runtime.migrate), so a command
	// running there that observes mgr == m can rely on ownership staying
	// put for its whole duration.
	mgr atomic.Pointer[manager]

	// drainFault drains the pair's queue through its handler with panic
	// recovery, watchdog and redelivery handling (type erasure over
	// Pair[T]). final marks shutdown/close drains, where a failed batch
	// is dropped (and accounted) instead of retained.
	drainFault func(final bool) drainReport
	// pending returns the current queue length.
	pending func() int
	// quota returns the pair's current elastic queue quota.
	quota func() int
	// setQuota adjusts the pair's elastic queue quota.
	setQuota func(int)

	// obs is the pair's latency instrumentation; nil unless the runtime
	// was built WithHistograms (the only hot-path cost then is this nil
	// check).
	obs *pairObs

	pred         predict.Predictor
	planner      *core.Planner
	lastDrain    simtime.Time
	reservedSlot int64 // -1 when none; manager-owned

	// labelCtx carries the owning manager's pprof labels plus this
	// pair's pbpl_pair, set on the manager goroutine around each drain;
	// labelOwner is the manager it was built for, so a migrated pair
	// rebuilds it on its first drain at the new owner. Manager-owned.
	labelCtx   context.Context
	labelOwner *manager

	// Fault-tolerance configuration, fixed at creation.
	handlerTimeout time.Duration    // 0: no watchdog
	breakerK       int              // consecutive failures to quarantine; 0: breaker off
	maxRedeliver   int              // redeliveries before a failed batch drops
	baseBackoff    simtime.Duration // first probe/redelivery delay (one slot)
	maxBackoff     simtime.Duration // probe backoff cap

	// Circuit-breaker state, owned by the manager goroutine.
	consecFails int
	backoff     simtime.Duration
	// probeAt is when the next half-open probe may run (simtime nanos;
	// atomic so Put can admit probe fodder once it is due).
	probeAt atomic.Int64

	// Per-pair counters (atomics: read by PairStats from any goroutine,
	// written on the producer and manager paths).
	itemsIn      atomic.Uint64
	itemsOut     atomic.Uint64
	invocations  atomic.Uint64
	overflows    atomic.Uint64
	kicks        atomic.Uint64
	panics       atomic.Uint64
	herrors      atomic.Uint64
	timeouts     atomic.Uint64
	quarantines  atomic.Uint64
	redeliveries atomic.Uint64
	dropped      atomic.Uint64
	handedOff    atomic.Uint64

	// armed is true while the manager holds (or is about to compute) a
	// reservation for this pair. Producers set it on the first item
	// into an empty, unarmed pair and kick the manager.
	armed atomic.Bool
	// forcePending coalesces overflow force requests.
	forcePending atomic.Bool
	closed       atomic.Bool
	// parked holds the wake channels of producers blocked in AwaitDrain,
	// under parkMu; waiters is its length, so a drain with nobody parked
	// costs one atomic load (wakeProducers).
	parkMu  sync.Mutex
	parked  []chan struct{}
	waiters atomic.Int32
	// quarantined is true while the circuit breaker is open.
	quarantined atomic.Bool
	// degraded is set by the watchdog when a handler overruns its
	// deadline; cleared by the next clean invocation.
	degraded atomic.Bool
	// probing is true while a half-open probe runs on its own goroutine.
	probing atomic.Bool
	// retained is the size of the failed batch held for redelivery.
	retained atomic.Int64

	// lastRate holds the float bits of the pair's latest predicted rate
	// (items/s), published on every plan so the placement controller can
	// read it without touching the manager-owned predictor.
	lastRate atomic.Uint64
}

// predictedRate returns the pair's last published predicted rate.
func (st *pairState) predictedRate() float64 {
	return math.Float64frombits(st.lastRate.Load())
}

// runOnOwner executes f on the goroutine of the manager that currently
// owns the pair, retrying if a migration moves the pair between the
// ownership read and the command running. Ownership changes only on the
// owner's goroutine, so once the command observes st.mgr == m it stays
// stable for f's whole duration. Returns false if the owning manager
// has shut down.
func (st *pairState) runOnOwner(f func(m *manager)) bool {
	for {
		m := st.mgr.Load()
		moved := false
		ok := m.run(func() {
			if st.mgr.Load() != m {
				moved = true
				return
			}
			f(m)
		})
		if !ok {
			return false
		}
		if !moved {
			return true
		}
	}
}

// countInvocation credits one handler invocation to the pair's and the
// runtime's counters (item movement is counted inside drainFault).
func (st *pairState) countInvocation(rt *Runtime) {
	rt.stats.invocations.Add(1)
	st.invocations.Add(1)
}

// countFinal credits a shutdown-path drain: invocations only fire when
// the handler actually ran.
func (st *pairState) countFinal(rt *Runtime, rep drainReport) {
	if rep.attempted > 0 {
		st.countInvocation(rt)
	}
}

// wakeProducers releases the producers parked in AwaitDrain after a
// drain, close or quarantine. Each is signalled once and unparked, so a
// wake never outlives the event that sent it: a producer that parks
// again waits for the next one. With none parked it costs one atomic
// load.
func (st *pairState) wakeProducers() {
	if st.waiters.Load() == 0 {
		return
	}
	st.parkMu.Lock()
	for i, wake := range st.parked {
		select {
		case wake <- struct{}{}:
		default:
		}
		st.parked[i] = nil
	}
	st.parked = st.parked[:0]
	st.waiters.Store(0)
	st.parkMu.Unlock()
}

// park registers a producer's wake channel, first emptying it of a
// signal that lost the race against its previous wait's timer.
func (st *pairState) park(wake chan struct{}) {
	select {
	case <-wake:
	default:
	}
	st.parkMu.Lock()
	st.parked = append(st.parked, wake)
	st.waiters.Store(int32(len(st.parked)))
	st.parkMu.Unlock()
}

// unpark removes wake if no event has signalled it yet.
func (st *pairState) unpark(wake chan struct{}) {
	st.parkMu.Lock()
	for i, c := range st.parked {
		if c == wake {
			last := len(st.parked) - 1
			st.parked[i], st.parked[last] = st.parked[last], nil
			st.parked = st.parked[:last]
			break
		}
	}
	st.waiters.Store(int32(len(st.parked)))
	st.parkMu.Unlock()
}

// probeDue reports whether the next half-open probe time has arrived.
func (st *pairState) probeDue(now simtime.Time) bool {
	return now >= simtime.Time(st.probeAt.Load())
}

// pairStats snapshots the pair's counters.
func (st *pairState) pairStats() PairStats {
	// Out before In: producers count an item in before publishing it,
	// so loading in this order keeps ItemsOut <= ItemsIn in every
	// snapshot.
	out := st.itemsOut.Load()
	return PairStats{
		ItemsIn:      st.itemsIn.Load(),
		ItemsOut:     out,
		Invocations:  st.invocations.Load(),
		Overflows:    st.overflows.Load(),
		Kicks:        st.kicks.Load(),
		Panics:       st.panics.Load(),
		Errors:       st.herrors.Load(),
		Timeouts:     st.timeouts.Load(),
		Quarantines:  st.quarantines.Load(),
		Redeliveries: st.redeliveries.Load(),
		Dropped:      st.dropped.Load(),
		HandedOff:    st.handedOff.Load(),
	}
}

// manager is a live core manager (§V-B): one goroutine owning a slot
// track, its reservations, and a single timer armed at the earliest
// reserved slot. Consumer handlers run serially on this goroutine —
// a core executes one consumer at a time, which is precisely what
// makes latching free.
type manager struct {
	rt *Runtime
	id int
	// cal holds the reserved pairs by slot; due is the scratch onTimer
	// pops a fire's pairs into.
	cal track.Calendar[*pairState]
	due []*pairState

	cmds  chan func()
	kick  chan *pairState
	force chan *pairState
	done  chan struct{}

	timer *time.Timer

	// labelCtx carries the goroutine's pprof labels (pbpl_manager): the
	// parent of every hosted pair's labelCtx and what the goroutine goes
	// back to after a drain; set once at the top of loop.
	labelCtx context.Context

	// Per-manager wakeup counters (atomics: incremented alongside the
	// runtime totals, read by ManagerSnapshots from any goroutine). They
	// expose where the wakeups happen, which is what the placement
	// controller is trying to shrink.
	timerWakes  atomic.Uint64
	forcedWakes atomic.Uint64
	// drains counts the consumer invocations this goroutine has
	// completed, for any pair: it moves while the manager works through
	// a round and stands still while a handler has it wedged (the stall
	// rule of Pair.AwaitDrain).
	drains atomic.Uint64
}

func newManager(rt *Runtime, id int) *manager {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &manager{
		rt:    rt,
		id:    id,
		cmds:  make(chan func(), 16),
		kick:  make(chan *pairState, 128),
		force: make(chan *pairState, 128),
		done:  make(chan struct{}),
		timer: t,
	}
}

// loop is the manager goroutine: arm the timer at the earliest reserved
// slot, then react to timer expirations, overflow forces, producer
// kicks and control commands. On shutdown it drains every registered
// pair one final time.
func (m *manager) loop() {
	// Label the goroutine so pprof samples and runtime/trace attribute
	// time to this core manager.
	m.labelCtx = pprof.WithLabels(context.Background(),
		pprof.Labels("pbpl_manager", strconv.Itoa(m.id)))
	pprof.SetGoroutineLabels(m.labelCtx)
	defer m.finalDrain()
	for {
		var timerC <-chan time.Time
		if slot, ok := m.cal.Earliest(); ok {
			d := time.Until(m.rt.wallAt(m.rt.planner.Track.Start(slot)))
			if d < 0 {
				d = 0
			}
			if !m.timer.Stop() {
				select {
				case <-m.timer.C:
				default:
				}
			}
			m.timer.Reset(d)
			timerC = m.timer.C
		}

		select {
		case <-m.done:
			return
		case f := <-m.cmds:
			f()
		case p := <-m.kick:
			if p.mgr.Load() != m {
				// Stale: the pair migrated away while this kick was
				// queued; the migration's hand-off kick covers it.
				continue
			}
			m.onKick(p)
		case p := <-m.force:
			p.forcePending.Store(false)
			if p.mgr.Load() != m {
				// Stale after migration. The quiesce drain already
				// emptied the pair at hand-off; a producer waiting on
				// this force retries and re-forces at the current owner.
				p.wakeProducers()
				continue
			}
			if !p.closed.Load() {
				m.rt.stats.forcedWakes.Add(1)
				m.forcedWakes.Add(1)
				now := m.rt.now()
				wake := m.rt.timelineAppend(obs.Record{
					Kind:    obs.KindForcedWake,
					Nanos:   int64(now),
					Manager: m.id,
					Slot:    m.rt.planner.Track.Index(now),
					Pair:    uint64(p.id),
					Items:   p.pending(),
				})
				m.drainAndPlan(p, now, false, wake)
			}
		case <-timerC:
			m.onTimer()
		}
	}
}

// onTimer fires every reserved slot whose start has passed. One timer
// expiration serving several pairs is the latching payoff — gather the
// due pairs first so the timeline can record one fire covering them
// all (and so reservations made while draining never join this round).
// They drain in ascending slot, then registration order.
func (m *manager) onTimer() {
	now := m.rt.now()
	nowSlot := m.rt.planner.Track.Index(now)
	m.due = m.cal.PopThrough(nowSlot, m.due[:0])
	if len(m.due) == 0 {
		return
	}
	for _, p := range m.due {
		p.reservedSlot = -1
	}
	m.rt.stats.timerWakes.Add(1)
	m.timerWakes.Add(1)
	wake := m.rt.timelineAppend(obs.Record{
		Kind:    obs.KindTimerFire,
		Nanos:   int64(now),
		Manager: m.id,
		Slot:    nowSlot,
		Items:   len(m.due),
	})
	var t0 int64
	o := m.rt.obs
	if o != nil && o.hist {
		t0 = o.clock.Precise()
	}
	for _, p := range m.due {
		m.drainAndPlan(p, now, true, wake)
	}
	if o != nil && o.hist {
		o.mgrDrain[m.id].Record(o.clock.Precise() - t0)
	}
	clear(m.due) // a closed pair must not stay reachable from the scratch
}

// onKick handles a producer's arm request: a pair that had no
// reservation received its first item.
func (m *manager) onKick(p *pairState) {
	if p.closed.Load() || p.reservedSlot >= 0 {
		return
	}
	m.plan(p, m.rt.now())
}

// drainAndPlan runs one consumer invocation: drain through the handler
// (with fault isolation), settle the breaker, and reserve the next
// slot. scheduled distinguishes slot-timer drains from overflow-forced
// ones; wake is the timeline sequence of the fire that triggered this
// drain (0 when the timeline is off). A quarantined pair never drains
// inline here: once its probe time arrives the half-open probe runs on
// its own goroutine, so a handler that is still broken (or still
// stalling) cannot re-block the other pairs sharing this manager.
func (m *manager) drainAndPlan(p *pairState, now simtime.Time, scheduled bool, wake uint64) {
	m.deregister(p)
	if p.quarantined.Load() {
		if !p.probeDue(now) {
			p.armed.Store(true)
			m.reserve(p, m.slotAfter(simtime.Time(p.probeAt.Load())))
			return
		}
		if !p.probing.Swap(true) {
			m.rt.wg.Add(1)
			go func() {
				defer m.rt.wg.Done()
				m.probe(p)
			}()
		}
		return
	}
	if p.labelOwner != m {
		p.labelCtx = pprof.WithLabels(m.labelCtx, pprof.Labels("pbpl_pair", strconv.Itoa(p.id)))
		p.labelOwner = m
	}
	pprof.SetGoroutineLabels(p.labelCtx)
	rep := p.drainFault(false)
	pprof.SetGoroutineLabels(m.labelCtx)
	m.rt.timelineAppend(obs.Record{
		Kind:    obs.KindDrain,
		Nanos:   int64(m.rt.now()),
		Manager: m.id,
		Slot:    m.rt.planner.Track.Index(now),
		Pair:    uint64(p.id),
		Wake:    wake,
		Items:   rep.delivered,
	})
	if rep.timedOut {
		// The handler overran its deadline inline on this goroutine.
		// Re-sample the clock so the next reservation charges the
		// stolen time instead of pretending the drain was punctual.
		now = m.rt.now()
	}
	if cb := m.rt.opts.observer; cb != nil {
		cb(Event{Kind: EventDrain, Pair: p.id, At: time.Duration(now), Items: rep.delivered, Scheduled: scheduled})
	}
	p.countInvocation(m.rt)
	m.drains.Add(1)
	if dt := now.Sub(p.lastDrain); dt > 0 {
		p.pred.Observe(float64(rep.dequeued) / dt.Seconds())
	}
	p.lastDrain = now
	m.settle(p, rep, now)
}

// settle applies one drain outcome to the pair's circuit breaker and
// schedules what happens next: a normal plan, a redelivery slot, or a
// quarantine probe. Runs on the owning manager's goroutine.
func (m *manager) settle(p *pairState, rep drainReport, now simtime.Time) {
	if p.closed.Load() {
		return
	}
	if p.quarantined.Load() {
		switch {
		case rep.failed:
			// Failed half-open probe: back off exponentially.
			p.consecFails++
			p.backoff *= 2
			if p.backoff > p.maxBackoff {
				p.backoff = p.maxBackoff
			}
			m.scheduleProbe(p, now)
		case rep.attempted == 0:
			// Nothing to prove (no retained batch, no probe fodder):
			// hold the breaker state and probe again without widening
			// the backoff.
			m.scheduleProbe(p, now)
		default:
			// Successful delivery: close the breaker.
			p.quarantined.Store(false)
			p.consecFails = 0
			p.backoff = 0
			p.degraded.Store(false)
			m.rt.stats.recoveries.Add(1)
			if cb := m.rt.opts.observer; cb != nil {
				cb(Event{Kind: EventRecover, Pair: p.id, At: time.Duration(now)})
			}
			m.rt.timelineAppend(obs.Record{
				Kind:    obs.KindRecover,
				Nanos:   int64(now),
				Manager: m.id,
				Slot:    m.rt.planner.Track.Index(now),
				Pair:    uint64(p.id),
			})
			m.plan(p, now)
		}
		return
	}
	if rep.failed {
		p.consecFails++
		if p.breakerK > 0 && p.consecFails >= p.breakerK {
			p.quarantined.Store(true)
			p.backoff = p.baseBackoff
			p.quarantines.Add(1)
			m.rt.stats.quarantines.Add(1)
			p.wakeProducers() // their retry now fails fast
			if cb := m.rt.opts.observer; cb != nil {
				cb(Event{Kind: EventQuarantine, Pair: p.id, At: time.Duration(now)})
			}
			m.rt.timelineAppend(obs.Record{
				Kind:    obs.KindQuarantine,
				Nanos:   int64(now),
				Manager: m.id,
				Slot:    m.rt.planner.Track.Index(now),
				Pair:    uint64(p.id),
			})
			m.scheduleProbe(p, now)
			return
		}
		if p.retained.Load() > 0 {
			// Redeliver the failed batch at the next slot after one
			// slot's grace.
			p.armed.Store(true)
			m.reserve(p, m.slotAfter(now.Add(p.baseBackoff)))
			return
		}
		m.plan(p, now)
		return
	}
	if rep.attempted > 0 {
		p.consecFails = 0
		p.degraded.Store(false)
	}
	m.plan(p, now)
}

// scheduleProbe reserves the pair's next half-open probe slot.
func (m *manager) scheduleProbe(p *pairState, now simtime.Time) {
	at := now.Add(p.backoff)
	p.probeAt.Store(int64(at))
	p.armed.Store(true)
	m.reserve(p, m.slotAfter(at))
}

// probe runs one half-open invocation of a quarantined pair on its own
// goroutine and settles the outcome back on the owning manager.
func (m *manager) probe(p *pairState) {
	rep := p.drainFault(false)
	now := m.rt.now()
	if rep.attempted > 0 {
		p.countInvocation(m.rt)
		if cb := m.rt.opts.observer; cb != nil {
			cb(Event{Kind: EventDrain, Pair: p.id, At: time.Duration(now), Items: rep.delivered})
		}
	}
	ok := p.runOnOwner(func(cur *manager) {
		p.probing.Store(false)
		cur.settle(p, rep, cur.rt.now())
	})
	if !ok {
		// Owner shut down mid-probe; Runtime.Close's final sweep picks
		// up anything the probe left behind.
		p.probing.Store(false)
	}
}

// slotAfter returns the first slot whose start is at or after t.
func (m *manager) slotAfter(t simtime.Time) int64 {
	return m.rt.planner.Track.Index(t) + 1
}

// plan consults the shared PBPL planner and applies its decision.
func (m *manager) plan(p *pairState, now simtime.Time) {
	if p.closed.Load() {
		return
	}
	if p.quarantined.Load() {
		// Hand-off or kick while quarantined: keep probing, never a
		// normal reservation.
		if p.reservedSlot < 0 && !p.probing.Load() {
			at := simtime.Time(p.probeAt.Load())
			if at < now {
				at = now
			}
			p.armed.Store(true)
			m.reserve(p, m.slotAfter(at))
		}
		return
	}
	if p.retained.Load() > 0 && p.reservedSlot < 0 {
		// A failed batch awaits redelivery (e.g. right after a
		// migration hand-off): schedule it ahead of normal planning.
		p.armed.Store(true)
		m.reserve(p, m.slotAfter(now.Add(p.baseBackoff)))
		return
	}
	rhat := p.pred.Predict()
	p.lastRate.Store(math.Float64bits(rhat))
	plan := p.planner.Next(now, rhat, p.pending(), &m.cal, func(want int) int {
		return m.rt.requestQuota(p.id, want)
	})
	if plan.Quota >= 0 {
		p.setQuota(plan.Quota)
	}
	if !plan.Reserve {
		// Going idle: allow producers to re-arm us, then re-check for
		// an item that raced in between the pending() read and the
		// flag flip.
		if cb := m.rt.opts.observer; cb != nil {
			cb(Event{Kind: EventIdle, Pair: p.id, At: time.Duration(now)})
		}
		p.armed.Store(false)
		if p.pending() > 0 && !p.armed.Swap(true) {
			m.plan(p, now)
		}
		return
	}
	p.armed.Store(true)
	if cb := m.rt.opts.observer; cb != nil {
		cb(Event{Kind: EventReserve, Pair: p.id, At: time.Duration(now), Slot: plan.Slot})
	}
	m.reserve(p, plan.Slot)
}

func (m *manager) reserve(p *pairState, slot int64) {
	if p.reservedSlot == slot {
		return
	}
	m.deregister(p)
	m.cal.Add(slot, p)
	p.reservedSlot = slot
}

func (m *manager) deregister(p *pairState) {
	if p.reservedSlot < 0 {
		return
	}
	m.cal.Remove(p.reservedSlot, p)
	p.reservedSlot = -1
}

// finalDrain empties every pair still holding items at shutdown. These
// drains are final: a batch whose handler fails here is dropped and
// accounted in ItemsDropped, never retained.
func (m *manager) finalDrain() {
	seen := map[*pairState]bool{}
	for _, p := range m.cal.PopThrough(math.MaxInt64, nil) {
		seen[p] = true
	}
	// Also catch pairs with pending items but no reservation (queued
	// kicks/forces that will never be served).
	for {
		select {
		case p := <-m.kick:
			seen[p] = true
			continue
		case p := <-m.force:
			seen[p] = true
			continue
		default:
		}
		break
	}
	for p := range seen {
		p.reservedSlot = -1
	}
	for p := range seen {
		rep := p.drainFault(true)
		if rep.attempted > 0 {
			p.countInvocation(m.rt)
			if cb := m.rt.opts.observer; cb != nil {
				cb(Event{Kind: EventDrain, Pair: p.id, At: time.Duration(m.rt.now()), Items: rep.delivered})
			}
		}
	}
}

// run executes f on the manager goroutine and waits for it; used for
// registration and close sequencing. Returns false if the manager has
// shut down.
func (m *manager) run(f func()) bool {
	ack := make(chan struct{})
	select {
	case m.cmds <- func() { f(); close(ack) }:
	case <-m.done:
		return false
	}
	select {
	case <-ack:
		return true
	case <-m.done:
		return false
	}
}
