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
func trickleRuntime(tb testing.TB, n int) (*Runtime, []*Pair[int]) {
	tb.Helper()
	rt, err := New(WithSlotSize(time.Millisecond), WithMaxLatency(10*time.Millisecond))
	if err != nil {
		tb.Fatal(err)
	}
	ps := make([]*Pair[int], n)
	for i := range ps {
		if ps[i], err = Open(rt, Batch(func([]int) {})); err != nil {
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
