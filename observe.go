package repro

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
)

// LatencySampleEvery is the deterministic sampling stride of the
// latency histograms: every LatencySampleEvery-th item a pair accepts
// gets an enqueue stamp and contributes one observation to the wait
// and done distributions. Sampling rides the pair's existing item
// counter, so the producer pays no extra atomics — the stride is what
// keeps enabled-observability Put overhead inside its budget on small
// machines while thousands of samples per second still pin the
// quantiles to the histogram's 1/16 resolution. Histogram counts are
// therefore sampled counts (≈ items/LatencySampleEvery), not item
// counts.
const LatencySampleEvery = 1 << stampSampleShift

const (
	stampSampleShift = 3
	stampSampleMask  = LatencySampleEvery - 1
)

// obsState is the runtime's observability plumbing, built by New only
// when WithHistograms or WithTimeline is set. When neither is, rt.obs
// is nil and every hot-path hook is a single pointer check.
type obsState struct {
	hist     bool
	clock    *obs.Clock    // coarse producer clock; nil unless hist
	timeline *obs.Timeline // nil unless WithTimeline
	mgrDrain []*obs.Histogram

	// retiredWait / retiredDone accumulate closed pairs' histograms so
	// LatencyTotals covers the runtime's whole life, not just the pairs
	// still open (see removePair).
	retiredWait *obs.Histogram
	retiredDone *obs.Histogram
}

// pairObs is a pair's latency instrumentation: the stamp ring carrying
// enqueue times from the producer side to the drain (consumption is
// serialized by the pair's drain lock), and the two per-pair
// histograms. Stamps pair with items by count, not identity, so a
// dropped stamp only shifts which timestamp meets which item; for a
// histogram that is harmless.
type pairObs struct {
	stamps *ring.SPSC[int64]
	drops  atomic.Uint64 // stamps discarded on a full ring
	// mu makes the producers of a ConcurrentProducers pair a single
	// writer of stamps, as the queue's producer lock does for the items;
	// a single-producer pair (locked false) never takes it. Only sampled
	// items (1 in LatencySampleEvery) reach it.
	locked bool
	mu     sync.Mutex
	wait   *obs.Histogram // enqueue → handler-start
	done   *obs.Histogram // enqueue → handler-done
}

// stamp pushes k enqueue stamps of value now (k > 1 when one PutBatch
// crossed several sampling boundaries). A stamp that finds the ring
// full is dropped and counted: the item still flows, its latency just
// goes unobserved.
func (po *pairObs) stamp(now int64, k int) {
	if po.locked {
		po.mu.Lock()
	}
	for ; k > 0; k-- {
		if !po.stamps.Push(now) {
			po.drops.Add(1)
		}
	}
	if po.locked {
		po.mu.Unlock()
	}
}

func newObsState(o options, start time.Time) *obsState {
	s := &obsState{hist: o.histograms}
	if o.timelineCap > 0 {
		s.timeline = obs.NewTimeline(o.timelineCap)
	}
	if o.histograms {
		tick := o.slotSize / 4
		if tick < 200*time.Microsecond {
			tick = 200 * time.Microsecond
		}
		if tick > 2*time.Millisecond {
			tick = 2 * time.Millisecond
		}
		s.clock = obs.NewClock(start, tick)
		s.mgrDrain = make([]*obs.Histogram, o.managers)
		for i := range s.mgrDrain {
			s.mgrDrain[i] = obs.NewHistogram()
		}
		s.retiredWait = obs.NewHistogram()
		s.retiredDone = obs.NewHistogram()
	}
	return s
}

// newPairObs sizes a pair's stamp ring to its buffer: at the 1-in-8
// sampling stride, buffer/4 stamps cover twice the quota (elastic
// lending included); anything beyond is dropped, not blocked on.
func newPairObs(buffer int, concurrent bool) *pairObs {
	capacity := buffer / 4
	if capacity < 256 {
		capacity = 256
	}
	if capacity > 1<<16 {
		capacity = 1 << 16
	}
	return &pairObs{
		stamps: ring.NewSPSC[int64](capacity),
		locked: concurrent,
		wait:   obs.NewHistogram(),
		done:   obs.NewHistogram(),
	}
}

// DefaultLatencyBounds is the bucket ladder used for Prometheus
// histogram export and LatencyDist.Cumulative: wide enough to bracket
// any sane MaxLatency, fine enough that a p99-vs-bound check has teeth.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		time.Millisecond,
		2500 * time.Microsecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2500 * time.Millisecond,
	}
}

// LatencyDist summarizes one latency histogram. Quantiles carry the
// histogram's ≤ 1/16 relative resolution error; Cumulative holds the
// counts at or below each DefaultLatencyBounds entry plus the total
// (the Prometheus `le` series).
type LatencyDist struct {
	Count      uint64
	Sum        time.Duration
	Max        time.Duration
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	Cumulative []uint64
}

func distOf(h *obs.Histogram) LatencyDist {
	bounds := DefaultLatencyBounds()
	nanos := make([]int64, len(bounds))
	for i, b := range bounds {
		nanos[i] = int64(b)
	}
	return LatencyDist{
		Count:      h.Count(),
		Sum:        time.Duration(h.Sum()),
		Max:        time.Duration(h.Max()),
		P50:        time.Duration(h.Quantile(0.50)),
		P95:        time.Duration(h.Quantile(0.95)),
		P99:        time.Duration(h.Quantile(0.99)),
		Cumulative: h.Cumulative(nanos),
	}
}

// PairLatencies is one open pair's latency distributions (see
// Runtime.PairLatencies).
type PairLatencies struct {
	// ID is the pair's runtime-assigned id (Pair.ID).
	ID int
	// Wait is enqueue→handler-start: how long items sat buffered, the
	// latency cost of batching the planner trades against wakeups.
	Wait LatencyDist
	// Done is enqueue→handler-done: the full response latency the §IV
	// model bounds by MaxLatency.
	Done LatencyDist
	// StampDrops counts enqueue timestamps discarded on a full stamp
	// ring; those items flowed normally but went unobserved.
	StampDrops uint64
}

// PairLatencies returns every open pair's latency distributions,
// ordered by pair id. Empty when WithHistograms is off.
func (rt *Runtime) PairLatencies() []PairLatencies {
	if rt.obs == nil || !rt.obs.hist {
		return nil
	}
	rt.pairMu.Lock()
	states := make([]*pairState, 0, len(rt.pairs))
	for _, st := range rt.pairs {
		if st.obs != nil {
			states = append(states, st)
		}
	}
	rt.pairMu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]PairLatencies, len(states))
	for i, st := range states {
		out[i] = PairLatencies{
			ID:         st.id,
			Wait:       distOf(st.obs.wait),
			Done:       distOf(st.obs.done),
			StampDrops: st.obs.drops.Load(),
		}
	}
	return out
}

// ManagerLatencies is one core manager's wake→drain-done distribution
// (see Runtime.ManagerLatencies).
type ManagerLatencies struct {
	ID    int
	Drain LatencyDist
}

// ManagerLatencies returns each manager's wake→drain-done latency: the
// time one timer fire (or forced wake) spent draining every latched
// pair. Empty when WithHistograms is off.
func (rt *Runtime) ManagerLatencies() []ManagerLatencies {
	if rt.obs == nil || !rt.obs.hist {
		return nil
	}
	out := make([]ManagerLatencies, len(rt.obs.mgrDrain))
	for i, h := range rt.obs.mgrDrain {
		out[i] = ManagerLatencies{ID: i, Drain: distOf(h)}
	}
	return out
}

// LatencyTotals merges every pair's histograms — open pairs plus those
// already closed — into runtime-wide wait (enqueue→handler-start) and
// done (enqueue→handler-done) distributions. ok is false when
// WithHistograms is off. Valid after Close too.
func (rt *Runtime) LatencyTotals() (wait, done LatencyDist, ok bool) {
	if rt.obs == nil || !rt.obs.hist {
		return LatencyDist{}, LatencyDist{}, false
	}
	w := obs.NewHistogram()
	d := obs.NewHistogram()
	w.Merge(rt.obs.retiredWait)
	d.Merge(rt.obs.retiredDone)
	rt.pairMu.Lock()
	states := make([]*pairState, 0, len(rt.pairs))
	for _, st := range rt.pairs {
		if st.obs != nil {
			states = append(states, st)
		}
	}
	rt.pairMu.Unlock()
	for _, st := range states {
		w.Merge(st.obs.wait)
		d.Merge(st.obs.done)
	}
	return distOf(w), distOf(d), true
}

// TimelineRecord is one wakeup-timeline entry as dumped by
// Runtime.TimelineDump and served by pcd's /debug/timeline — the live
// analogue of one mark on the paper's Fig. 6 timelines. Kind is one of
// timer-fire, forced-wake, drain, drop, overrun, quarantine, recover or
// migrate. A drain record's Wake equals the Seq of the timer-fire or
// forced-wake that triggered it (0 for a probe, migration or final
// drain), so several drains sharing one Wake are the latching payoff
// made visible. Pair is the pair's id on every kind but timer-fire,
// which serves all of a manager's due pairs and carries none (Pair 0,
// and no "pair" in its JSON).
type TimelineRecord struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Nanos   int64  `json:"nanos"`
	Manager int    `json:"manager"`
	Slot    int64  `json:"slot"`
	Pair    int    `json:"pair"`
	Wake    uint64 `json:"wake,omitempty"`
	Items   int    `json:"items,omitempty"`
}

// MarshalJSON writes "pair" on every record of a pair, pair 0 (the
// first pair opened) included, and none on a timer fire.
func (r TimelineRecord) MarshalJSON() ([]byte, error) {
	type record TimelineRecord // without this method
	if r.Kind != obs.KindTimerFire.String() {
		return json.Marshal(record(r))
	}
	return json.Marshal(struct {
		record
		Pair *int `json:"pair,omitempty"` // shadows record.Pair
	}{record: record(r)})
}

// TimelineDump returns the surviving wakeup-timeline records in order.
// The ring keeps the most recent records up to the WithTimeline
// capacity; older ones are overwritten (the documented loss bound).
// Nil when WithTimeline is off.
func (rt *Runtime) TimelineDump() []TimelineRecord {
	if rt.obs == nil || rt.obs.timeline == nil {
		return nil
	}
	recs := rt.obs.timeline.Dump()
	out := make([]TimelineRecord, len(recs))
	for i, r := range recs {
		out[i] = timelineRecordOf(r)
	}
	return out
}

// timelineRecordOf converts one ring record to its JSON shape.
func timelineRecordOf(r obs.Record) TimelineRecord {
	if r.Kind == obs.KindTimerFire {
		r.Pair = 0
	}
	return TimelineRecord{
		Seq:     r.Seq,
		Kind:    r.Kind.String(),
		Nanos:   r.Nanos,
		Manager: r.Manager,
		Slot:    r.Slot,
		Pair:    int(r.Pair),
		Wake:    r.Wake,
		Items:   r.Items,
	}
}

// TimelineCap returns the timeline ring capacity (0 when WithTimeline
// is off): a dump never loses more history than this.
func (rt *Runtime) TimelineCap() int {
	if rt.obs == nil || rt.obs.timeline == nil {
		return 0
	}
	return rt.obs.timeline.Cap()
}

// record appends one event to the wakeup timeline, the runtime's one
// event record, stamped with the current time and slot, and returns its
// Seq. With the timeline off it costs one nil check and returns 0.
// Every kind has exactly one call site: timer fires in manager.onTimer,
// forced wakes in manager.loop, drains in Pair.drainFault, drops in
// Pair.dropBatch, overruns in Pair.overrun, quarantine and recovery in
// pairState.settle, migrations in Runtime.migrate.
func (rt *Runtime) record(kind obs.Kind, mgr, pair int, wake uint64, items int) uint64 {
	if rt.obs == nil || rt.obs.timeline == nil {
		return 0
	}
	now := rt.now()
	return rt.obs.timeline.Append(obs.Record{
		Kind:    kind,
		Nanos:   int64(now),
		Manager: mgr,
		Slot:    rt.planner.Track.Index(now),
		Pair:    uint64(pair),
		Wake:    wake,
		Items:   items,
	})
}
