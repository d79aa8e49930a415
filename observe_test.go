package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLatencyHistograms: with WithHistograms, a pair's wait and done
// distributions are populated, done ≥ wait, and the totals survive the
// pair closing (retired merge) and runtime Close.
func TestLatencyHistograms(t *testing.T) {
	rt, err := New(
		WithSlotSize(2*time.Millisecond),
		WithMaxLatency(20*time.Millisecond),
		WithHistograms(),
	)
	if err != nil {
		t.Fatal(err)
	}
	var handled atomic.Uint64
	pair, err := Open(rt, Batch(func(batch []int) { handled.Add(uint64(len(batch))) }))
	if err != nil {
		t.Fatal(err)
	}
	const items = 500
	for i := 0; i < items; i++ {
		for pair.Put(i) != nil {
			time.Sleep(50 * time.Microsecond)
		}
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() < items && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() < items {
		t.Fatalf("handled %d of %d items", handled.Load(), items)
	}

	// Every sampled item must surface: one stamp per full sampling
	// stride, each ending up recorded or counted as a ring drop. The
	// last batch's recording races the handler's counter bump, so poll.
	wantSamples := uint64(items / LatencySampleEvery)
	var pl PairLatencies
	for {
		pls := rt.PairLatencies()
		if len(pls) != 1 {
			t.Fatalf("PairLatencies len = %d, want 1", len(pls))
		}
		pl = pls[0]
		if pl.Done.Count+pl.StampDrops >= wantSamples || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if pl.ID != pair.ID() {
		t.Fatalf("pair id = %d, want %d", pl.ID, pair.ID())
	}
	observed := pl.Done.Count
	if observed == 0 || pl.Wait.Count == 0 {
		t.Fatalf("empty distributions: wait=%d done=%d", pl.Wait.Count, observed)
	}
	if observed+pl.StampDrops < wantSamples {
		t.Fatalf("done count %d + stamp drops %d < %d samples", observed, pl.StampDrops, wantSamples)
	}
	if pl.Done.P99 < pl.Wait.P50 {
		t.Fatalf("done p99 %v below wait p50 %v", pl.Done.P99, pl.Wait.P50)
	}
	if pl.Done.Max > time.Minute {
		t.Fatalf("absurd max latency %v", pl.Done.Max)
	}

	mls := rt.ManagerLatencies()
	if len(mls) != 1 {
		t.Fatalf("ManagerLatencies len = %d, want 1", len(mls))
	}
	if mls[0].Drain.Count == 0 {
		t.Fatal("manager drain histogram empty despite timer wakes")
	}

	// Close the pair: its histograms must fold into the totals.
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rt.PairLatencies(); len(got) != 0 {
		t.Fatalf("PairLatencies after close len = %d, want 0", len(got))
	}
	wait, done, ok := rt.LatencyTotals()
	if !ok {
		t.Fatal("LatencyTotals not ok with histograms enabled")
	}
	if done.Count != observed || wait.Count == 0 {
		t.Fatalf("retired totals lost data: wait=%d done=%d (want done %d)",
			wait.Count, done.Count, observed)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, done2, ok := rt.LatencyTotals(); !ok || done2.Count != done.Count {
		t.Fatalf("totals changed across Close: %d -> %d (ok=%v)", done.Count, done2.Count, ok)
	}
}

// TestObservabilityDisabledByDefault: without the options, the obs
// surface is inert and costs the hot path nothing but nil checks.
func TestObservabilityDisabledByDefault(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.Put(1); err != nil {
		t.Fatal(err)
	}
	if rt.obs != nil || pair.st.obs != nil {
		t.Fatal("obs state allocated without WithHistograms/WithTimeline")
	}
	if got := rt.PairLatencies(); got != nil {
		t.Fatalf("PairLatencies = %v, want nil", got)
	}
	if got := rt.TimelineDump(); got != nil {
		t.Fatalf("TimelineDump = %v, want nil", got)
	}
	if _, _, ok := rt.LatencyTotals(); ok {
		t.Fatal("LatencyTotals ok without histograms")
	}
	if rt.TimelineCap() != 0 {
		t.Fatalf("TimelineCap = %d, want 0", rt.TimelineCap())
	}
}

// TestTimelineLatching: two pairs reserved into the same slot must show
// drain records sharing one timer-fire Wake — the live Fig. 6 claim.
func TestTimelineLatching(t *testing.T) {
	rt, err := New(
		WithSlotSize(5*time.Millisecond),
		WithMaxLatency(50*time.Millisecond),
		WithTimeline(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const pairs = 4
	var done atomic.Uint64
	ps := make([]*Pair[int], pairs)
	for i := range ps {
		p, err := Open(rt, Batch(func(batch []int) { done.Add(uint64(len(batch))) }))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Steady trickle into every pair so their reservations keep
		// landing in nearby slots until a fire latches several at once.
		for _, p := range ps {
			_ = p.Put(1)
		}
		time.Sleep(2 * time.Millisecond)
		if timelineHasSharedFire(rt.TimelineDump(), 2) {
			return
		}
	}
	t.Fatalf("no timer fire latched ≥ 2 pairs; timeline tail: %+v", tail(rt.TimelineDump(), 20))
}

// timelineHasSharedFire reports whether any single timer fire's Seq is
// referenced as the Wake of drains on n distinct pairs.
func timelineHasSharedFire(recs []TimelineRecord, n int) bool {
	fires := map[uint64]map[int]bool{}
	for _, r := range recs {
		if r.Kind == "timer-fire" {
			fires[r.Seq] = map[int]bool{}
		}
	}
	for _, r := range recs {
		if r.Kind != "drain" || r.Wake == 0 {
			continue
		}
		if set, ok := fires[r.Wake]; ok {
			set[r.Pair] = true
			if len(set) >= n {
				return true
			}
		}
	}
	return false
}

func tail(recs []TimelineRecord, n int) []TimelineRecord {
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// TestTimelineStorm: a migration + quarantine storm with full
// observability on must deliver every event class into the timeline
// with no loss beyond the ring bound, conserve items, and stay clean
// under -race.
func TestTimelineStorm(t *testing.T) {
	rt, err := New(
		WithManagers(3),
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithMaxPairs(32),
		WithHistograms(),
		WithTimeline(256), // small on purpose: force overwrites
		WithConsolidation(ConsolidationConfig{Interval: 5 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var flaky atomic.Bool
	flaky.Store(true)
	const pairs = 8
	ps := make([]*Pair[int], pairs)
	for i := range ps {
		i := i
		p, err := Open(rt, Func(func(_ context.Context, batch []int) error {
			if i == 0 && flaky.Load() {
				return boom
			}
			return nil
		}),

			Breaker(2), Redelivery(1))

		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, p := range ps {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = p.Put(1)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	flaky.Store(false) // let pair 0 recover
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	recs := rt.TimelineDump()
	if len(recs) != rt.TimelineCap() {
		t.Fatalf("storm dump has %d records, want full ring of %d", len(recs), rt.TimelineCap())
	}
	// Loss bound: the ring holds exactly the newest Cap sequence numbers.
	appended := rt.obs.timeline.Appended()
	lo := appended - uint64(rt.TimelineCap()) + 1
	for _, r := range recs {
		if r.Seq < lo || r.Seq > appended {
			t.Fatalf("record seq %d outside documented window [%d, %d]", r.Seq, lo, appended)
		}
	}
	st := rt.Stats()
	if st.Quarantines == 0 {
		t.Fatal("storm never tripped the breaker")
	}
	if st.ItemsIn != st.ItemsOut+st.ItemsDropped {
		t.Fatalf("conservation broken: in=%d out=%d dropped=%d", st.ItemsIn, st.ItemsOut, st.ItemsDropped)
	}
	// The full window must still be a contiguous, ordered story.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap in dump at %d: %d -> %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// TestTimelineEventKinds: every instrumented transition shows up in the
// dump — fires, drains, forced wakes, drops, quarantine, recovery.
func TestTimelineEventKinds(t *testing.T) {
	rt, err := New(
		WithManagers(2),
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithBuffer(4),
		WithTimeline(4096),
		WithConsolidation(ConsolidationConfig{Interval: 5 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	boom := errors.New("boom")
	var fail atomic.Bool
	fail.Store(true)
	flakyPair, err := Open(rt, Func(func(context.Context, []int) error {
		if fail.Load() {
			return boom
		}
		return nil
	}),

		Breaker(1), Redelivery(0))

	if err != nil {
		t.Fatal(err)
	}
	steady, err := Open(rt, Batch(func([]int) {}), MaxLatency(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		_ = flakyPair.Put(1)
		for i := 0; i < 8; i++ {
			_ = steady.Put(i) // overflows the 4-slot buffer → forced wakes
		}
		time.Sleep(time.Millisecond)
		if !recovered && flakyPair.Quarantined() {
			fail.Store(false)
			recovered = true
		}
		kinds := map[string]int{}
		for _, r := range rt.TimelineDump() {
			kinds[r.Kind]++
		}
		if kinds["timer-fire"] > 0 && kinds["drain"] > 0 && kinds["forced-wake"] > 0 &&
			kinds["drop"] > 0 && kinds["quarantine"] > 0 && kinds["recover"] > 0 {
			return
		}
	}
	kinds := map[string]int{}
	for _, r := range rt.TimelineDump() {
		kinds[r.Kind]++
	}
	t.Fatalf("timeline missing event kinds after storm: %v", kinds)
}

func TestWithTimelineValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := New(WithTimeline(capacity)); err == nil ||
			!strings.Contains(err.Error(), "WithTimeline") {
			t.Fatalf("New(WithTimeline(%d)) = %v, want construction error", capacity, err)
		}
	}
	rt, err := New(WithTimeline(TimelineDefaultCap))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStampDropsWhenRingFull: a stamp that finds the ring full is
// dropped and counted, never blocked on, and the stamps already in the
// ring are the oldest, in order.
func TestStampDropsWhenRingFull(t *testing.T) {
	po := newPairObs(0, false) // the floor: 256 stamps
	capacity := po.stamps.Cap()
	for i := 0; i < capacity+4; i++ {
		po.stamp(int64(i), 1)
	}
	po.stamp(-1, 3)
	if got := po.drops.Load(); got != 7 {
		t.Fatalf("drops = %d, want 7", got)
	}
	got := make([]int64, capacity+1)
	if n := po.stamps.PopBatch(got); n != capacity {
		t.Fatalf("ring held %d stamps, want %d", n, capacity)
	}
	for i, v := range got[:capacity] {
		if v != int64(i) {
			t.Fatalf("stamp %d = %d", i, v)
		}
	}
}

// TestLatencyStampsConcurrentProducers is the configuration pcd
// -histograms runs: several goroutines Put and PutBatch into one
// ConcurrentProducers pair with histograms on. The stamp ring has a
// single-producer contract, so sampled stamp pushes must be serialised
// like the item pushes are: unserialised, a late tail store moves the
// tail backwards and wedges the ring. Every sampling boundary the item
// counter crossed must end up as exactly one recorded wait or one
// counted drop, none dropped with the ring sized for the buffer, and
// no wait longer than the test has been running.
func TestLatencyStampsConcurrentProducers(t *testing.T) {
	const (
		producers = 4
		perProd   = 1 << 14
		buffer    = producers * perProd
	)
	begin := time.Now()
	// The quota is pinned to the buffer so no Put overflows: an overflow
	// takes its count back, and boundaries could no longer be counted
	// from the total.
	rt, err := New(
		WithSlotSize(2*time.Millisecond),
		WithMaxLatency(20*time.Millisecond),
		WithBuffer(buffer),
		WithMinQuota(buffer),
		WithHistograms(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var handled atomic.Uint64
	pair, err := Open(rt, Batch(func(batch []int) { handled.Add(uint64(len(batch))) }), ConcurrentProducers())
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]int, 5)
			for sent := 0; sent < perProd; {
				if n := min(len(batch), perProd-sent); sent%2 == 0 {
					if _, err := pair.PutBatch(batch[:n]); err != nil {
						t.Errorf("PutBatch: %v", err)
						return
					}
					sent += n
				} else if err := pair.Put(sent); err != nil {
					t.Errorf("Put: %v", err)
					return
				} else {
					sent++
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// A stamp is pushed after its item, so a drain can take the item and
	// leave the stamp for the next one: at most one per producer here,
	// as no call crosses two boundaries. Feed single items until every
	// boundary is accounted for; each drain picks up what was left.
	put := uint64(producers * perProd)
	var pl PairLatencies
	for fillers := 0; ; fillers++ {
		if !waitFor(t, 10*time.Second, func() bool { return handled.Load() == put }) {
			t.Fatalf("handled %d of %d items", handled.Load(), put)
		}
		pl = rt.PairLatencies()[0]
		if pl.Wait.Count+pl.StampDrops == put/LatencySampleEvery {
			break
		}
		if fillers == 16*producers {
			t.Fatalf("%d waits + %d drops after %d items, want %d samples",
				pl.Wait.Count, pl.StampDrops, put, put/LatencySampleEvery)
		}
		if err := pair.Put(0); err != nil {
			t.Fatal(err)
		}
		put++
	}
	if pl.StampDrops != 0 {
		t.Fatalf("%d stamps dropped by a ring sized for the buffer", pl.StampDrops)
	}
	if elapsed := time.Since(begin); pl.Wait.Max > elapsed {
		t.Fatalf("recorded a wait of %v, %v into the test", pl.Wait.Max, elapsed)
	}
}

// TestTimelineSharedWakeDrainOrder: when one timer expiry covers several
// reserved slots that have already passed, the pairs drain — and their
// drain records appear — in ascending slot order, whatever order they
// registered in. (onTimer used to gather the due pairs by ranging over a
// map, so the order changed from run to run.)
func TestTimelineSharedWakeDrainOrder(t *testing.T) {
	rt, err := New(
		WithSlotSize(5*time.Millisecond),
		WithMaxLatency(50*time.Millisecond),
		WithTimeline(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	first, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.managers[0]
	// Let the track reach slot 3: the test reserves two slots back, and
	// a pair's reservedSlot of −1 means none.
	time.Sleep(15 * time.Millisecond)
	for iter := 0; iter < 50; iter++ {
		_ = first.Put(iter)
		_ = second.Put(iter)
		// On the manager goroutine, so nothing fires in between: the
		// later slot is registered first, both already in the past. The
		// timeline mark is taken there too, after both reservations, so
		// a drain left over from the previous iteration cannot land
		// between the mark and the fire under test.
		var seen int
		m.run(func() {
			slot := rt.planner.Track.Index(rt.now())
			m.reserve(first.st, slot-1)
			m.reserve(second.st, slot-2)
			seen = len(rt.TimelineDump())
		})
		var drains []TimelineRecord
		if !waitFor(t, 5*time.Second, func() bool {
			drains = drains[:0]
			for _, r := range rt.TimelineDump()[seen:] {
				if r.Kind == "drain" {
					drains = append(drains, r)
				}
			}
			return len(drains) >= 2
		}) {
			t.Fatalf("iteration %d: drains %+v, want both pairs drained", iter, drains)
		}
		if drains[0].Pair != second.ID() || drains[1].Pair != first.ID() || drains[0].Wake != drains[1].Wake || drains[0].Wake == 0 {
			t.Fatalf("iteration %d: drains %+v, want pair %d (earlier slot) then pair %d on one fire", iter, drains, second.ID(), first.ID())
		}
	}
}

// goroutineLabels returns the label set of every goroutine carrying a
// pbpl_* profiler label, as the goroutine profile prints it.
func goroutineLabels(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	var sets []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if set, ok := strings.CutPrefix(line, "# labels: "); ok && strings.Contains(set, "pbpl_") {
			sets = append(sets, set)
		}
	}
	return sets
}

// TestDrainCarriesProfilerLabels pins what a profile shows: during a
// drain the manager goroutine carries pbpl_manager and the pair's
// pbpl_pair, back at its idle wait only pbpl_manager, and after a
// migration the pair's drains carry the new manager's id (the label
// context is cached per (manager, pair), so a stale cache would show
// here).
func TestDrainCarriesProfilerLabels(t *testing.T) {
	rt, err := New(WithManagers(2), WithSlotSize(time.Millisecond), WithMaxLatency(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	pair, err := Open(rt, Batch(func([]int) {
		entered <- struct{}{}
		<-release
	}))
	if err != nil {
		t.Fatal(err)
	}
	pairLabel := fmt.Sprintf("%q:%q", "pbpl_pair", strconv.Itoa(pair.ID()))
	managerLabel := func(m *manager) string { return fmt.Sprintf("%q:%q", "pbpl_manager", strconv.Itoa(m.id)) }

	// blockedDrain puts one item, waits for the handler to block and
	// checks the one goroutine labelled with the pair is manager m's.
	blockedDrain := func(m *manager) {
		t.Helper()
		if err := pair.Put(1); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("handler never ran")
		}
		var draining []string
		for _, set := range goroutineLabels(t) {
			if strings.Contains(set, pairLabel) {
				draining = append(draining, set)
			}
		}
		if len(draining) != 1 || !strings.Contains(draining[0], managerLabel(m)) {
			t.Fatalf("goroutines labelled %s during the drain: %q, want one also carrying %s", pairLabel, draining, managerLabel(m))
		}
		release <- struct{}{}
	}

	from := pair.st.mgr.Load()
	blockedDrain(from)
	// Back at the idle wait the goroutine is the manager's alone.
	var sets []string
	if !waitFor(t, 5*time.Second, func() bool {
		sets = goroutineLabels(t)
		return !strings.Contains(strings.Join(sets, "\n"), "pbpl_pair")
	}) {
		t.Fatalf("pair label outlived the drain: %q", sets)
	}
	if !strings.Contains(strings.Join(sets, "\n"), managerLabel(from)) {
		t.Fatalf("idle manager lost its own label: %q", sets)
	}

	to := rt.managers[1-from.id]
	if !rt.migrate(pair.st, to) {
		t.Fatal("migrate refused")
	}
	blockedDrain(to)
}
