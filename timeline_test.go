package repro

import (
	"encoding/json"
	"testing"
	"time"
)

// TestObserverSequence: the timeline's drain records carry every item
// the pair delivered, one record per counted invocation, whichever path
// ran it (slot timers while the producer runs, Close's final drain at
// the end).
func TestObserverSequence(t *testing.T) {
	rt, err := New(
		WithSlotSize(5*time.Millisecond),
		WithMaxLatency(25*time.Millisecond),
		WithTimeline(TimelineDefaultCap),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := pair.PutWait(i, time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	var drains, items int
	for _, r := range wholeTimeline(t, rt) {
		if r.Nanos < 0 {
			t.Errorf("negative record time: %+v", r)
		}
		if r.Kind != "drain" {
			continue
		}
		drains++
		items += r.Items
		if r.Pair != pair.ID() {
			t.Errorf("drain of pair %d, want %d: %+v", r.Pair, pair.ID(), r)
		}
	}
	if items != 20 {
		t.Fatalf("drain records carry %d items, want 20", items)
	}
	if st := rt.Stats(); uint64(drains) != st.Invocations {
		t.Fatalf("%d drain records for %d invocations", drains, st.Invocations)
	}
}

// wholeTimeline dumps rt's timeline, failing the test if the ring has
// overwritten any record: the callers count records against Stats.
func wholeTimeline(t *testing.T, rt *Runtime) []TimelineRecord {
	t.Helper()
	if n := rt.obs.timeline.Appended(); n > uint64(rt.TimelineCap()) {
		t.Fatalf("%d records overflowed the %d-record ring", n, rt.TimelineCap())
	}
	return rt.TimelineDump()
}

// TestObserverScheduledFlag: every drain a manager wake runs names its
// cause — a flooded 4-item buffer drains on forced wakes, a calm trickle
// on slot-timer fires — and the cause is an earlier record of the same
// manager (and, for a forced wake, of the same pair).
func TestObserverScheduledFlag(t *testing.T) {
	rt, err := New(
		WithSlotSize(20*time.Millisecond),
		WithMaxLatency(200*time.Millisecond),
		WithBuffer(4), WithMinQuota(2),
		WithTimeline(TimelineDefaultCap),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// drained counts the drains that delivered items, by cause kind.
	drained := func() map[string]int {
		recs := rt.TimelineDump()
		bySeq := make(map[uint64]TimelineRecord, len(recs))
		for _, r := range recs {
			bySeq[r.Seq] = r
		}
		counts := map[string]int{}
		for _, r := range recs {
			if r.Kind != "drain" {
				continue
			}
			cause, ok := bySeq[r.Wake]
			switch {
			case !ok:
				t.Fatalf("drain %+v names no surviving record as its cause", r)
			case cause.Kind != "timer-fire" && cause.Kind != "forced-wake":
				t.Fatalf("drain %+v caused by a %q record", r, cause.Kind)
			case cause.Seq >= r.Seq || cause.Manager != r.Manager:
				t.Fatalf("drain %+v caused by %+v: not an earlier record of its manager", r, cause)
			case cause.Kind == "forced-wake" && cause.Pair != r.Pair:
				t.Fatalf("drain %+v caused by another pair's forced wake %+v", r, cause)
			}
			if r.Items > 0 {
				counts[cause.Kind]++
			}
		}
		return counts
	}

	// Flood: forced drains.
	for i := 0; i < 100; i++ {
		pair.Put(i)
	}
	if !waitFor(t, 3*time.Second, func() bool { return drained()["forced-wake"] > 0 }) {
		t.Fatal("no forced drains recorded under flood")
	}
	// Calm trickle: scheduled drains.
	for i := 0; i < 6; i++ {
		pair.PutWait(i, time.Second)
		time.Sleep(25 * time.Millisecond)
	}
	if !waitFor(t, 3*time.Second, func() bool { return drained()["timer-fire"] > 0 }) {
		t.Fatal("no scheduled drains recorded on a trickle")
	}
}

// TestTimelineJSONNamesPairZero: pair ids start at 0, so the first
// pair's records must still carry "pair" on the wire; only a timer
// fire, which serves all of a manager's due pairs, carries none.
func TestTimelineJSONNamesPairZero(t *testing.T) {
	rt, err := New(
		WithSlotSize(2*time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithTimeline(TimelineDefaultCap),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	if pair.ID() != 0 {
		t.Fatalf("the first pair has id %d, want 0", pair.ID())
	}
	if err := pair.Put(1); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for deadline := time.Now().Add(5 * time.Second); !seen["drain"] || !seen["timer-fire"]; {
		if time.Now().After(deadline) {
			t.Fatalf("no timer-fire and drain on the timeline: %+v", rt.TimelineDump())
		}
		time.Sleep(time.Millisecond)
		for _, r := range rt.TimelineDump() {
			seen[r.Kind] = true
		}
	}
	raw, err := json.Marshal(rt.TimelineDump())
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		p, has := r["pair"]
		switch {
		case r["kind"] == "timer-fire" && has:
			t.Errorf("timer fire carries a pair: %v", r)
		case r["kind"] != "timer-fire" && (!has || p != 0.0):
			t.Errorf("record of pair 0 without \"pair\": 0: %v", r)
		}
	}
}
