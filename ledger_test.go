package repro

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The TestStatsLedger tests cover the counters that used to be written
// after their pair retired: Runtime.Stats reads a closed pair's counters
// once, when Pair.Close or Handoff folds them into the runtime's total,
// so a count that lands later is lost from Stats. Each test closes the
// runtime and then checks the ledger exactly.

// checkLedger asserts, once rt is closed, that the item ledger balances
// and that Stats counted every handler invocation exactly once.
func checkLedger(t *testing.T, rt *Runtime, calls int64) {
	t.Helper()
	st := rt.Stats()
	if st.ItemsIn != st.ItemsOut+st.ItemsDropped+st.HandedOff {
		t.Errorf("ledger: in %d != out %d + dropped %d + handed off %d",
			st.ItemsIn, st.ItemsOut, st.ItemsDropped, st.HandedOff)
	}
	if st.Invocations != uint64(calls) {
		t.Errorf("Stats().Invocations = %d, handlers observed %d", st.Invocations, calls)
	}
}

// TestStatsLedgerHandoff: Handoff counts what it takes before the pair
// retires. Pairs hand off or close concurrently while Stats is scraped;
// a slot far beyond the test keeps the manager from draining, so only
// Close's final drains invoke handlers.
func TestStatsLedgerHandoff(t *testing.T) {
	rt, err := New(WithSlotSize(time.Second), WithMaxLatency(time.Minute), WithBuffer(1024), WithManagers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var calls, handed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				p, err := Open(rt, Batch(func([]int) { calls.Add(1) }))
				if err != nil {
					t.Error(err)
					return
				}
				for v := 0; v < 1+r%7; v++ {
					_ = p.Put(v)
				}
				if (g+r)%2 == 0 {
					items, err := p.Handoff()
					if err != nil {
						t.Error(err)
						return
					}
					handed.Add(int64(len(items)))
				} else if err := p.Close(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Left open: the runtime's own shutdown drains these.
	for i := 0; i < 3; i++ {
		p, err := Open(rt, Batch(func([]int) { calls.Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = p.PutBatch([]int{1, 2, 3})
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for !stop.Load() {
			if st := rt.Stats(); st.ItemsOut+st.ItemsDropped+st.HandedOff > st.ItemsIn {
				t.Errorf("mid-run: out %d + dropped %d + handed off %d > in %d",
					st.ItemsOut, st.ItemsDropped, st.HandedOff, st.ItemsIn)
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-scraped
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, rt, calls.Load())
	if got := rt.Stats().HandedOff; got != uint64(handed.Load()) {
		t.Errorf("Stats().HandedOff = %d, Handoff returned %d items", got, handed.Load())
	}
}

// TestStatsLedgerProbe: a half-open probe counts its invocation before
// its drain lets go of the pair, so a Pair.Close that waited behind the
// probe cannot retire the pair first.
func TestStatsLedgerProbe(t *testing.T) {
	for r := 0; r < 5; r++ {
		rt, err := New(WithSlotSize(time.Millisecond), WithMaxLatency(10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		entered := make(chan struct{})
		release := make(chan struct{})
		p, err := Open(rt, Func(func(_ context.Context, batch []int) error {
			if calls.Add(1) == 1 {
				return errors.New("trip the breaker")
			}
			close(entered)
			<-release // the probe holds the pair while Close queues behind it
			return nil
		}), Breaker(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Put(1); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("no half-open probe ran")
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			_ = p.Close()
		}()
		// Give Close time to queue behind the probe's drain; the ledger
		// must hold whichever gets there first.
		time.Sleep(time.Millisecond)
		close(release)
		<-closed
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, rt, calls.Load())
		if st := rt.Stats(); st.Quarantines != 1 || st.ItemsOut != 1 {
			t.Errorf("quarantines %d, out %d; want 1 and 1", st.Quarantines, st.ItemsOut)
		}
	}
}

// TestStatsLedgerWatchdog: a handler-timeout watchdog that fires as the
// handler returns counts its overrun before the drain ends, so a Close
// right behind it loses no HandlerTimeouts. The handlers sleep around
// their deadline to put the watchdog and the return in a race.
func TestStatsLedgerWatchdog(t *testing.T) {
	// Each pair leaves a handful of records; the ring must lose none.
	rt, err := New(WithSlotSize(time.Second), WithMaxLatency(time.Minute), WithTimeline(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const deadline = time.Millisecond
	var calls atomic.Int64
	for i := 0; i < 30; i++ {
		sleep := deadline + time.Duration(i%5-2)*50*time.Microsecond
		p, err := Open(rt, Batch(func([]int) {
			calls.Add(1)
			time.Sleep(sleep)
		}), HandlerTimeout(deadline))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Put(i); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, rt, calls.Load())
	var overruns uint64
	for _, r := range wholeTimeline(t, rt) {
		if r.Kind == "overrun" {
			overruns++
		}
	}
	st := rt.Stats()
	if st.HandlerTimeouts != overruns {
		t.Errorf("Stats().HandlerTimeouts = %d, overrun records %d", st.HandlerTimeouts, overruns)
	}
	if st.HandlerTimeouts == 0 {
		t.Error("no watchdog fired; the test lost its race")
	}
}
