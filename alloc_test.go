package repro

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The zero-allocation contract: once a pair reaches steady state —
// segments acquired, scratch buffers grown to their working size —
// Put and PutBatch must not allocate. BenchmarkLivePut/-Batch report
// the same thing via -benchmem; these tests make it a hard gate that
// plain `go test ./...` enforces on every run.
//
// testing.AllocsPerRun counts mallocs process-wide, so the manager
// goroutine's allocations land in the tally too — but the Put tests
// cannot see a per-invocation cost: a 1 024-item run lasts tens of µs
// against a 5 ms slot, so most runs contain no consumer invocation at
// all, and they tolerate one allocation per run (timer plumbing and the
// like). That is how ≈ 6 allocations per invocation went unnoticed from
// PR 4 to PR 18. The consumer side of the contract — timer fire →
// drain → plan → reserve → re-arm recycles everything — is
// TestWakeupPathAllocFree's, which counts per invocation.

func allocSteadyPair(t *testing.T, opts ...PairOption) (*Runtime, *Pair[int]) {
	t.Helper()
	rt, err := New(
		WithSlotSize(5*time.Millisecond),
		WithMaxLatency(50*time.Millisecond),
		WithBuffer(1<<14),
	)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := Open(rt, Batch(func([]int) {}), opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Warm to steady state: enough traffic that every pooled segment and
	// the runtime's timers have been exercised, and — the drain scratch
	// grows on demand — past the first overflow, whose forced drain takes
	// a whole quota at once: the largest drain the counted phase can see.
	for i, overflowed := 0, false; i < 1<<14 || !overflowed; i++ {
		for pair.Put(i) != nil {
			overflowed = true
			time.Sleep(time.Microsecond)
		}
	}
	time.Sleep(20 * time.Millisecond)
	return rt, pair
}

func TestPutSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	// Both builds of the queue: the producer lock must not cost an
	// allocation either.
	for _, tc := range []struct {
		name string
		opts []PairOption
	}{{"SingleProducer", nil}, {"ConcurrentProducers", []PairOption{ConcurrentProducers()}}} {
		t.Run(tc.name, func(t *testing.T) {
			rt, pair := allocSteadyPair(t, tc.opts...)
			defer rt.Close()
			defer pair.Close()

			const perRun = 1024
			avg := testing.AllocsPerRun(20, func() {
				for i := 0; i < perRun; i++ {
					for pair.Put(i) != nil {
						time.Sleep(time.Microsecond)
					}
				}
			})
			if avg > 1 {
				t.Fatalf("Put steady state: %.2f allocs per %d items, want ~0", avg, perRun)
			}
		})
	}
}

func TestPutBatchSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	rt, pair := allocSteadyPair(t)
	defer rt.Close()
	defer pair.Close()

	batch := make([]int, 64)
	avg := testing.AllocsPerRun(20, func() {
		for pushed := 0; pushed < 1024; {
			n, err := pair.PutBatch(batch)
			if err != nil {
				time.Sleep(time.Microsecond)
				continue
			}
			pushed += n
			if n == 0 {
				time.Sleep(time.Microsecond)
			}
		}
	})
	if avg > 1 {
		t.Fatalf("PutBatch steady state: %.2f allocs per 1024 items, want ~0", avg)
	}
}

// TestPutWaitOverflowAllocFree: PutWait is the library's put path on a
// full pair, so waiting out an overflow — force the drain, park on it,
// wake, retry — must allocate nothing on a single-producer pair: the
// drain's wake is an atomic load and a token send, and the producer's
// stall timer is the pair's own.
func TestPutWaitOverflowAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	const quota = 64
	rt, err := New(WithSlotSize(5*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(quota), WithoutResizing())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	// One more item than the quota holds: at least one overflow wait.
	wait := func() {
		for i := 0; i <= quota; i++ {
			if err := pair.PutWait(i, time.Second); err != nil {
				t.Errorf("PutWait(%d): %v", i, err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		wait() // settle: the drain scratch reaches its quota-sized high water
	}
	const runs = 200
	forced := rt.Stats().ForcedWakes
	if avg := testing.AllocsPerRun(runs, wait); avg != 0 {
		t.Fatalf("%.0f allocs per overflow wait, want 0", avg)
	}
	if got := rt.Stats().ForcedWakes - forced; got < runs {
		t.Fatalf("%d forced drains in %d runs: the runs did not wait out overflows", got, runs+1)
	}
}

// TestFirstOverflowWaitAllocFree: a single producer's first overflow
// wait allocates nothing either. Its stall timer is built at Open and
// its pair has room for one parked producer, so a pair that first
// fills up long after it opened — inside a measured span — does not
// allocate there. Each pair's drain scratch is grown first by a drain
// without an overflow, so the count is the wait's alone.
func TestFirstOverflowWaitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	const quota, pairs = 64, 16
	// Long slots: no scheduled drain empties a pair between its fill
	// and the overflow.
	rt, err := New(WithSlotSize(50*time.Millisecond), WithMaxLatency(500*time.Millisecond), WithBuffer(quota), WithoutResizing())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fill := func(pair *Pair[int]) {
		for i := 0; i < quota; i++ {
			if err := pair.Put(i); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
	}
	drained := func(pair *Pair[int]) {
		if err := pair.Flush(); err != nil {
			t.Fatal(err)
		}
		if !waitFor(t, 2*time.Second, func() bool { st := pair.Stats(); return st.ItemsOut == st.ItemsIn }) {
			t.Fatal("a forced drain never came")
		}
	}
	// The first pairs only warm the process: its threads and the
	// runtime's per-P caches of parked-goroutine records.
	const warm = 8
	allocated := 0 // pairs whose first wait allocated
	var ms runtime.MemStats
	for i := -warm; i < pairs; i++ {
		pair, err := Open(rt, Batch(func([]int) {}))
		if err != nil {
			t.Fatal(err)
		}
		fill(pair)
		drained(pair)
		// A slot boundary may pass between the fill and the overflow and
		// drain the pair first: then no wait happened, so try again.
		for pair.Stats().Overflows == 0 {
			fill(pair)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if err := pair.PutWait(quota, time.Second); err != nil {
				t.Fatalf("pair %d: PutWait: %v", i, err)
			}
			runtime.ReadMemStats(&ms)
			if pair.Stats().Overflows == 0 {
				drained(pair)
				continue
			}
			if ms.Mallocs != before && i >= 0 {
				allocated++
			}
		}
	}
	// The count is process-wide, so a stray runtime allocation (a new M,
	// a timer heap growing) may land in one pair's wait; a wait that
	// allocates shows in every pair's.
	t.Logf("%d of %d first overflow waits allocated", allocated, pairs)
	if allocated >= pairs/2 {
		t.Fatalf("%d of %d first overflow waits allocated, want fewer than %d", allocated, pairs, pairs/2)
	}
}

// TestDeliveredItemsAreCollectable pins the other half of the memory
// contract: once a batch's handler has returned, the pair keeps no
// reference to its items. The drain scratch (and a redelivered batch's
// retry copy) used to be re-sliced to [:0] without zeroing, so the last
// batch's payloads stayed reachable until the next drain overwrote them
// — on an idle stream, forever.
func TestDeliveredItemsAreCollectable(t *testing.T) {
	type payload struct{ _ [1 << 10]byte }
	const items = 32
	for _, tc := range []struct {
		name  string
		fails int // handler failures before it delivers (exercises retry)
	}{{"scratch", 0}, {"retry", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(WithSlotSize(time.Millisecond), WithMaxLatency(5*time.Millisecond), WithBuffer(64))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			delivered := make(chan int, items)
			fails := tc.fails
			pair, err := Open(rt, Func(func(_ context.Context, batch []*payload) error {
				if fails > 0 {
					fails--
					return errors.New("injected")
				}
				delivered <- len(batch)
				return nil
			}), Redelivery(3))
			if err != nil {
				t.Fatal(err)
			}
			defer pair.Close()

			var freed atomic.Int32
			batch := make([]*payload, items)
			for i := range batch {
				batch[i] = new(payload)
				runtime.SetFinalizer(batch[i], func(*payload) { freed.Add(1) })
			}
			if n, err := pair.PutBatch(batch); n != items || err != nil {
				t.Fatalf("PutBatch = %d, %v", n, err)
			}
			clear(batch)
			for got := 0; got < items; {
				select {
				case n := <-delivered:
					got += n
				case <-time.After(5 * time.Second):
					t.Fatalf("delivered %d of %d", got, items)
				}
			}
			// The handler signals before it returns; the clear follows.
			// Finalizers run on their own goroutine after a collection.
			deadline := time.Now().Add(5 * time.Second)
			for freed.Load() < items && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if n := freed.Load(); n < items {
				t.Fatalf("%d of %d delivered items still reachable from the idle pair", items-n, items)
			}
		})
	}
}

// trickleRuntime is one manager hosting n warm pairs on 1 ms slots, for
// driving the timer-driven drain cycle (TestWakeupPathAllocFree,
// BenchmarkInvocation). Warm means what allocSteadyPair means — each
// pair is past its first overflow, whose forced drain of a whole quota
// grows the drain scratch beyond anything a trickle fills — plus 100
// invocations of the trickle itself, so the manager's calendar and due
// scratch have held every pair at once.
func trickleRuntime(tb testing.TB, n int, opts ...PairOption) (*Runtime, []*Pair[int]) {
	tb.Helper()
	rt, err := New(WithSlotSize(time.Millisecond), WithMaxLatency(10*time.Millisecond))
	if err != nil {
		tb.Fatal(err)
	}
	ps := make([]*Pair[int], n)
	for i := range ps {
		if ps[i], err = Open(rt, Batch(func([]int) {}), opts...); err != nil {
			tb.Fatal(err)
		}
		for ps[i].Put(0) == nil {
		}
	}
	trickle(rt, ps, 100)
	return rt, ps
}

// trickle feeds every pair one item per half slot — far below any
// quota, so the pairs latch and drain on slot timers, never on overflow
// — until the runtime has made n more consumer invocations, and
// returns how many it made.
func trickle(rt *Runtime, ps []*Pair[int], n uint64) uint64 {
	start := rt.Stats().Invocations
	for {
		for _, p := range ps {
			_ = p.Put(1)
		}
		time.Sleep(500 * time.Microsecond)
		if made := rt.Stats().Invocations - start; made >= n {
			return made
		}
	}
}

// TestWakeupPathAllocFree is the consumer half of the contract: one
// invocation on the manager goroutine — timer fire, gather the due
// pairs, label, drain, plan, reserve, re-arm — allocates nothing once
// the pairs are warm.
func TestWakeupPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	rt, ps := trickleRuntime(t, 4)
	defer rt.Close()

	const runs = 3
	var invoked uint64
	warm := rt.Stats()
	perRun := testing.AllocsPerRun(runs, func() { invoked += trickle(rt, ps, 100) })
	if st := rt.Stats(); st.ForcedWakes != warm.ForcedWakes || st.TimerWakes == warm.TimerWakes {
		t.Fatalf("not the timer path: %d timer wakes, %d forced", st.TimerWakes-warm.TimerWakes, st.ForcedWakes-warm.ForcedWakes)
	}
	// AllocsPerRun calls the function once more than runs, to warm up.
	perInvocation := perRun * (runs + 1) / float64(invoked)
	t.Logf("%.0f allocs per run, %d invocations in %d runs: %.3f allocs/invocation", perRun, invoked, runs+1, perInvocation)
	if perInvocation > 0.05 {
		t.Fatalf("%.2f allocations per consumer invocation, want ≤ 0.05", perInvocation)
	}
}

// TestWatchedInvocationAllocs: a pair's handler watchdog is built once,
// at Open, and re-armed by each invocation, so a watched invocation
// allocates only what context.WithTimeout does for the handler's
// deadline context — 4 allocations — and not a timer, a closure and a
// channel of its own on top. The slack over 4 is the sibling wakeup
// test's, for the process-wide count.
func TestWatchedInvocationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	rt, ps := trickleRuntime(t, 4, HandlerTimeout(time.Second))
	defer rt.Close()

	const runs = 3
	var invoked uint64
	perRun := testing.AllocsPerRun(runs, func() { invoked += trickle(rt, ps, 100) })
	perInvocation := perRun * (runs + 1) / float64(invoked)
	t.Logf("%.0f allocs per run, %d invocations in %d runs: %.3f allocs/invocation", perRun, invoked, runs+1, perInvocation)
	if perInvocation > 4.05 {
		t.Fatalf("%.2f allocations per watched invocation, want ≤ 4.05", perInvocation)
	}
}
