package repro

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosIsolationUnderPanicsAndStalls is the acceptance test for the
// fault-tolerance layer: one core manager hosts a pair whose handler
// always panics, a pair whose handler stalls far past its watchdog
// deadline, and three healthy pairs. Once the two broken pairs are
// quarantined, the healthy pairs' delivery latency must stay bounded —
// well under one stall duration — because probes for the broken pairs
// run off the manager goroutine. Run under -race in the CI chaos job.
func TestChaosIsolationUnderPanicsAndStalls(t *testing.T) {
	const (
		stall        = 300 * time.Millisecond
		latencyBound = 250 * time.Millisecond // >> 50ms maxLatency for loaded CI boxes, << stall
	)
	rt, err := New(
		WithManagers(1),
		WithSlotSize(10*time.Millisecond),
		WithMaxLatency(50*time.Millisecond),
		WithBuffer(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	panicky, err := Open(rt, Batch(func([]int64) { panic("injected") }))
	if err != nil {
		t.Fatal(err)
	}
	staller, err := Open(rt, Func(func(context.Context, []int64) error {
		time.Sleep(stall)
		return nil
	}),

		HandlerTimeout(20*time.Millisecond))

	if err != nil {
		t.Fatal(err)
	}

	var worst atomic.Int64 // max healthy delivery latency, nanos
	var delivered atomic.Int64
	healthy := make([]*Pair[int64], 3)
	for i := range healthy {
		healthy[i], err = Open(rt, Batch(func(batch []int64) {
			now := time.Now().UnixNano()
			for _, putAt := range batch {
				lat := now - putAt
				for {
					cur := worst.Load()
					if lat <= cur || worst.CompareAndSwap(cur, lat) {
						break
					}
				}
			}
			delivered.Add(int64(len(batch)))
		}))

		if err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: drive both broken pairs until their breakers open. The
	// staller blocks the manager inline until then; that is the failure
	// mode quarantine exists to end.
	if !waitFor(t, 20*time.Second, func() bool {
		if !panicky.Quarantined() {
			panicky.Put(0)
		}
		if !staller.Quarantined() {
			staller.Put(0)
		}
		return panicky.Quarantined() && staller.Quarantined()
	}) {
		t.Fatalf("breakers never opened: panicky=%v staller=%v",
			panicky.Quarantined(), staller.Quarantined())
	}

	// Phase 2: with the broken pairs quarantined, healthy traffic on the
	// same manager must meet its latency bound.
	const perPair = 100
	for i := 0; i < perPair; i++ {
		for _, p := range healthy {
			for p.Put(time.Now().UnixNano()) != nil {
				time.Sleep(time.Millisecond)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := int64(perPair * len(healthy))
	if !waitFor(t, 10*time.Second, func() bool { return delivered.Load() == want }) {
		t.Fatalf("healthy pairs delivered %d of %d", delivered.Load(), want)
	}
	if w := time.Duration(worst.Load()); w >= latencyBound {
		t.Errorf("healthy-pair latency %v breaches %v (stall is %v): quarantine did not isolate",
			w, latencyBound, stall)
	}

	st := rt.Stats()
	if st.Quarantines < 2 {
		t.Errorf("quarantines = %d, want >= 2", st.Quarantines)
	}
	if st.HandlerPanics == 0 || st.HandlerTimeouts == 0 {
		t.Errorf("panics = %d, timeouts = %d, want both > 0", st.HandlerPanics, st.HandlerTimeouts)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st = rt.Stats()
	if st.ItemsIn != st.ItemsOut+st.ItemsDropped {
		t.Errorf("conservation violated: in %d != out %d + dropped %d",
			st.ItemsIn, st.ItemsOut, st.ItemsDropped)
	}
}

// TestBreakerOpensAndRecovers walks the breaker's full lifecycle on one
// batch: three consecutive failures (the fresh drain plus two
// redeliveries) open it; the retained batch rides the first half-open
// probe, succeeds, and closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	rt, err := New(WithSlotSize(10*time.Millisecond), WithMaxLatency(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var calls atomic.Int64
	var got atomic.Int64
	pair, err := Open(rt, Func(func(_ context.Context, batch []int) error {
		if calls.Add(1) <= 3 {
			return errors.New("still broken")
		}
		got.Add(int64(len(batch)))
		return nil
	}))

	// defaults: breaker K=3, redeliveries 3
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	for i := 0; i < 5; i++ {
		if err := pair.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	// The open state lasts one 10 ms backoff, which a loaded machine can
	// sleep through: wait on the counter, not on the flag.
	if !waitFor(t, 10*time.Second, func() bool { return pair.Stats().Quarantines == 1 }) {
		t.Fatal("breaker never opened")
	}
	// The fourth invocation (first probe redelivery) succeeds: the
	// breaker must close and the batch must arrive intact.
	if !waitFor(t, 10*time.Second, func() bool { return !pair.Quarantined() && got.Load() == 5 }) {
		t.Fatalf("breaker never closed: quarantined=%v delivered=%d", pair.Quarantined(), got.Load())
	}

	ps := pair.Stats()
	if ps.Quarantines != 1 {
		t.Errorf("pair quarantines = %d, want 1", ps.Quarantines)
	}
	if ps.Dropped != 0 {
		t.Errorf("pair dropped = %d, want 0 (batch recovered via redelivery)", ps.Dropped)
	}
	if ps.Redeliveries == 0 {
		t.Error("no redeliveries counted")
	}
	st := rt.Stats()
	if st.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries)
	}
	if st.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1", st.Quarantines)
	}
}

// TestQuarantinePutFailsFast pins the fail-fast contract: while the
// breaker is open and no probe is due, Put, PutBatch, PutWait and Flush
// all return ErrQuarantined immediately instead of buffering into (or
// forcing a drain through) a known-broken handler.
func TestQuarantinePutFailsFast(t *testing.T) {
	// A one-second slot makes the first probe a second away, so the
	// asserts below cannot race into the probe-fodder window; the drain
	// that opens the breaker is overflow-forced, not slot-scheduled.
	rt, err := New(WithSlotSize(time.Second), WithMaxLatency(5*time.Second), WithBuffer(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	pair, err := Open(rt, Func(func(context.Context, []int) error {
		return errors.New("permanently broken")
	}),

		Breaker(1), Redelivery(0))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// Fill the quota, then overflow to force the failing drain.
	for i := 0; i < 3; i++ {
		pair.Put(i)
	}
	if !waitFor(t, 10*time.Second, func() bool { return pair.Quarantined() }) {
		t.Fatal("breaker never opened")
	}

	if err := pair.Put(9); !errors.Is(err, ErrQuarantined) {
		t.Errorf("Put = %v, want ErrQuarantined", err)
	}
	if n, err := pair.PutBatch([]int{1, 2}); n != 0 || !errors.Is(err, ErrQuarantined) {
		t.Errorf("PutBatch = (%d, %v), want (0, ErrQuarantined)", n, err)
	}
	start := time.Now()
	if err := pair.PutWait(9, time.Minute); !errors.Is(err, ErrQuarantined) {
		t.Errorf("PutWait = %v, want ErrQuarantined", err)
	}
	if since := time.Since(start); since > 500*time.Millisecond {
		t.Errorf("PutWait blocked %v on a quarantined pair; want fail-fast", since)
	}
	if err := pair.Flush(); !errors.Is(err, ErrQuarantined) {
		t.Errorf("Flush = %v, want ErrQuarantined", err)
	}
}

// TestFaultFinalDrainConservation closes the runtime with items still
// buffered behind a panicking handler: the final drain must account
// every item as dropped — items are conserved, never silently lost.
func TestFaultFinalDrainConservation(t *testing.T) {
	rt, err := New(WithSlotSize(50*time.Millisecond), WithMaxLatency(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Int64
	good, err := Open(rt, Batch(func(batch []int) { delivered.Add(int64(len(batch))) }))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Open(rt, Batch(func([]int) { panic("injected") }))
	if err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := 0; i < n; i++ {
		if err := good.Put(i); err != nil {
			t.Fatal(err)
		}
		if err := bad.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	if delivered.Load() != n {
		t.Errorf("healthy pair delivered %d of %d", delivered.Load(), n)
	}
	bs := bad.Stats()
	if bs.ItemsOut != 0 {
		t.Errorf("panicking pair delivered %d items", bs.ItemsOut)
	}
	if bs.ItemsIn != bs.Dropped {
		t.Errorf("panicking pair: in %d != dropped %d", bs.ItemsIn, bs.Dropped)
	}
	st := rt.Stats()
	if st.ItemsIn != st.ItemsOut+st.ItemsDropped {
		t.Errorf("conservation violated: in %d != out %d + dropped %d",
			st.ItemsIn, st.ItemsOut, st.ItemsDropped)
	}
	if st.ItemsDropped != n {
		t.Errorf("dropped = %d, want %d", st.ItemsDropped, n)
	}
}

// TestFaultMigrationPanicMidDrain live-migrates a pair whose handler
// panics during the migration's quiesce drain: the failed batch must
// travel with the pair and be redelivered on the target manager once
// the handler heals — conserved, not lost in transit.
func TestFaultMigrationPanicMidDrain(t *testing.T) {
	rt, err := New(WithManagers(2), WithSlotSize(10*time.Millisecond), WithMaxLatency(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var broken atomic.Bool
	broken.Store(true)
	var got atomic.Int64
	pair, err := Open(rt, Func(func(_ context.Context, batch []int) error {
		if broken.Load() {
			panic("injected mid-drain")
		}
		got.Add(int64(len(batch)))
		return nil
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	const n = 10
	for i := 0; i < n; i++ {
		if err := pair.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	from := pair.st.mgr.Load()
	var to *manager
	for _, m := range rt.managers {
		if m != from {
			to = m
			break
		}
	}
	if !rt.migrate(pair.st, to) {
		t.Fatal("migrate refused")
	}
	broken.Store(false)
	if pair.st.mgr.Load() != to {
		t.Fatal("pair not on target manager")
	}

	if !waitFor(t, 10*time.Second, func() bool {
		ps := pair.Stats()
		return ps.ItemsOut+ps.Dropped == ps.ItemsIn && pair.Len() == 0
	}) {
		ps := pair.Stats()
		t.Fatalf("items unaccounted after migration: in %d out %d dropped %d",
			ps.ItemsIn, ps.ItemsOut, ps.Dropped)
	}
	ps := pair.Stats()
	if ps.ItemsIn != n {
		t.Fatalf("items in = %d, want %d", ps.ItemsIn, n)
	}
	if ps.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (batch should survive the move and heal)", ps.Dropped)
	}
	if got.Load() != n {
		t.Errorf("delivered %d of %d", got.Load(), n)
	}
}

// TestMigrationQuarantineOnTimeline: a migration's quiesce drain settles
// through the same path as a manager's drains, so when its failure
// opens the breaker the timeline records both the drain and the
// quarantine, and the quarantine records match Stats.Quarantines. The
// 1 s slots keep the manager from draining the item before the
// migration does.
func TestMigrationQuarantineOnTimeline(t *testing.T) {
	rt, err := New(WithManagers(2), WithSlotSize(time.Second), WithMaxLatency(10*time.Second),
		WithTimeline(TimelineDefaultCap))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) { panic("injected") }), Breaker(1), Redelivery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	if err := pair.Put(1); err != nil {
		t.Fatal(err)
	}
	from := pair.st.mgr.Load()
	to := rt.managers[1-from.id]
	if !rt.migrate(pair.st, to) {
		t.Fatal("migrate refused")
	}
	if !pair.Quarantined() {
		t.Fatal("the quiesce drain's failure did not open the breaker")
	}
	var drains, quarantines, migrates int
	for _, r := range wholeTimeline(t, rt) {
		if r.Pair != pair.ID() {
			continue
		}
		switch r.Kind {
		case "drain":
			if r.Manager == from.id && r.Wake == 0 {
				drains++
			}
		case "quarantine":
			quarantines++
			if r.Manager != from.id {
				t.Errorf("quarantine recorded on manager %d, want the source %d", r.Manager, from.id)
			}
		case "migrate":
			migrates++
		}
	}
	if st := rt.Stats(); uint64(quarantines) != st.Quarantines || quarantines != 1 {
		t.Fatalf("%d quarantine records, Stats.Quarantines = %d; want 1 and 1", quarantines, st.Quarantines)
	}
	if drains != 1 || migrates != 1 {
		t.Fatalf("%d quiesce drain records and %d migrate records, want 1 and 1", drains, migrates)
	}
}

// TestFaultSentinelErrors pins the exported sentinels' errors.Is
// behaviour through wrapping, the contract callers shed/reroute on.
func TestFaultSentinelErrors(t *testing.T) {
	for _, sentinel := range []error{ErrClosed, ErrOverflow, ErrQuarantined} {
		wrapped := fmt.Errorf("stream %q: %w", "audit", sentinel)
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("errors.Is(%v) lost through wrapping", sentinel)
		}
	}

	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pair.Put(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Put on closed pair = %v, want ErrClosed", err)
	}
	if _, err := pair.PutBatch([]int{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("PutBatch on closed pair = %v, want ErrClosed", err)
	}
}
