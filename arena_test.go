package repro

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests here cover a pair's private segment pool: how much of it
// Open builds, and whether it backs every item the quota ledger lets
// the pair hold.

// TestLentQuotaIsBacked: a pair lent its neighbours' quota can fill
// its ring to the quota it was granted. A hot pair beside five pairs
// fed one item every 20 ms is granted more than twice B0. Its handler
// then holds the runtime's only manager, so nothing drains and no
// quota moves while its producer fills the ring: every Put below the
// granted quota must be admitted.
func TestLentQuotaIsBacked(t *testing.T) {
	const b0, cold = 16, 5
	rt, err := New(WithBuffer(b0), WithManagers(1),
		WithSlotSize(5*time.Millisecond), WithMaxLatency(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var hold atomic.Bool
	held := make(chan struct{})
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll() // a failed check must not leave the manager held
	hot, err := Open(rt, Batch(func([]int) {
		if hold.CompareAndSwap(true, false) {
			held <- struct{}{}
			<-release
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var feeders sync.WaitGroup
	for i := 0; i < cold; i++ {
		p, err := Open(rt, Batch(func([]int) {}))
		if err != nil {
			t.Fatal(err)
		}
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = p.Put(1)
				}
			}
		}()
	}
	defer feeders.Wait()
	defer close(stop)

	deadline := time.Now().Add(20 * time.Second)
	for round := 0; ; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("the hot pair was never held with a quota above %d (last %d, %+v)", 2*b0, hot.Quota(), hot.Stats())
		}
		// Keep the hot pair busy until its quota has grown, then hold
		// its next drain in the handler.
		for hot.Quota() <= 2*b0 && time.Now().Before(deadline) {
			if hot.Put(0) != nil {
				runtime.Gosched()
			}
		}
		hold.Store(true)
		for waiting := true; waiting; {
			select {
			case <-held:
				waiting = false
			case <-time.After(50 * time.Microsecond):
				_ = hot.Put(0)
			}
		}
		quota := hot.Quota()
		if quota <= 2*b0 {
			release <- struct{}{} // a plan shrank it before the hold: try again
			continue
		}
		admitted := 0
		for {
			err := hot.Put(1)
			if err == ErrOverflow {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			admitted++
		}
		n := hot.Len()
		releaseAll()
		t.Logf("round %d: granted %d, held %d (%d admitted while the manager was held)", round, quota, n, admitted)
		if n < quota {
			t.Fatalf("granted quota %d, but the ring refused a Put holding %d items", quota, n)
		}
		return
	}
}

// TestOpenBuildsNoArena: Open makes no slot for a large B0 up front.
// A pair's pool makes its segments as its ring first needs them, so
// Open's own allocation stays well under the 2·B0 slots (4 MiB of
// ints) a pool built whole would take.
func TestOpenBuildsNoArena(t *testing.T) {
	const b0 = 1 << 18
	rt, err := New(WithBuffer(b0), WithSlotSize(time.Second), WithMaxLatency(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Open(rt, Batch(func([]int) {}))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Open with B0 = %d allocated %d bytes, want < 1 MiB", b0, got)
	}
}

// TestSmallPairArenaBuiltAtOpen: with lib_worldcup's shape — B0 = 64,
// five pairs — a pair's whole arena fits in its pool's first chunk, so
// Open builds all of it: the ring then holds Bg = 5·B0 items, the most
// the ledger could ever lend one pair, and filling and draining it
// allocates nothing after Open. The quota is raised by hand, with no
// manager to move it: the slot is longer than the test. The allocation
// count is process-wide, so a goroutine left over from an earlier test
// can add to it: the best of three fresh runtimes must read zero.
func TestSmallPairArenaBuiltAtOpen(t *testing.T) {
	const b0, pairs = 64, 5
	fill := func() (accepted int, mallocs uint64) {
		rt, err := New(WithBuffer(b0), WithMaxPairs(pairs), WithSlotSize(time.Second), WithMaxLatency(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var all []*Pair[int]
		for i := 0; i < pairs; i++ {
			p, err := Open(rt, Batch(func([]int) {}))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, p)
		}
		defer func() {
			for _, p := range all {
				_ = p.Close()
			}
		}()
		q := all[0].q
		q.SetQuota(b0 * pairs)
		items := make([]int, b0*pairs)
		scratch := make([]int, 0, len(items))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for round := 0; round < 3; round++ {
			if accepted = q.PushBatch(items); accepted != len(items) {
				break
			}
			scratch = q.DrainTo(scratch[:0])
		}
		runtime.ReadMemStats(&after)
		return accepted, after.Mallocs - before.Mallocs
	}
	least := ^uint64(0)
	for attempt := 0; attempt < 3 && least > 0; attempt++ {
		accepted, mallocs := fill()
		if accepted != b0*pairs {
			t.Fatalf("a ring lent Bg = %d held %d items", b0*pairs, accepted)
		}
		least = min(least, mallocs)
	}
	if least != 0 {
		t.Fatalf("filling to Bg after Open allocated %d times at best", least)
	}
}
