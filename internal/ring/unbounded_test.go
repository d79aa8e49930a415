package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestUnboundedFIFOWrapAround(t *testing.T) {
	pool := NewSegmentPool[int](4, 4)
	u := NewUnbounded(pool, 8)
	// Cycle items through repeatedly so segments are recycled many
	// times over (wrap-around through the recycle ring).
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for u.Push(next) {
			next++
		}
		for {
			v, ok := u.Pop()
			if !ok {
				break
			}
			if v != want {
				t.Fatalf("round %d: got %d want %d", round, v, want)
			}
			want++
		}
	}
	if want != next {
		t.Fatalf("popped %d of %d pushed", want, next)
	}
}

func TestUnboundedBatchExactlyFillsSegment(t *testing.T) {
	pool := NewSegmentPool[int](4, 8)
	u := NewUnbounded(pool, 32)
	batch := make([]int, 8) // exactly one segment
	for i := range batch {
		batch[i] = i
	}
	if n := u.PushBatch(batch); n != 8 {
		t.Fatalf("PushBatch = %d, want 8", n)
	}
	// The next push must cross into a fresh segment.
	if !u.Push(8) {
		t.Fatal("Push after exact fill failed")
	}
	got := u.DrainTo(nil)
	if len(got) != 9 {
		t.Fatalf("drained %d items, want 9", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestUnboundedBatchSpansSegments(t *testing.T) {
	pool := NewSegmentPool[int](8, 4)
	u := NewUnbounded(pool, 32)
	batch := make([]int, 14) // spans ≥3 segments of 4
	for i := range batch {
		batch[i] = 100 + i
	}
	if n := u.PushBatch(batch); n != 14 {
		t.Fatalf("PushBatch = %d, want 14", n)
	}
	got := u.DrainTo(nil)
	if len(got) != 14 {
		t.Fatalf("drained %d, want 14", len(got))
	}
	for i, v := range got {
		if v != 100+i {
			t.Fatalf("got[%d] = %d, want %d", i, v, 100+i)
		}
	}
}

func TestUnboundedQuotaLimitsBatch(t *testing.T) {
	pool := NewSegmentPool[int](4, 4)
	u := NewUnbounded(pool, 5)
	batch := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if n := u.PushBatch(batch); n != 5 {
		t.Fatalf("PushBatch = %d, want quota-limited 5", n)
	}
	if u.Push(99) {
		t.Fatal("Push above quota succeeded")
	}
	got := u.DrainTo(nil)
	if len(got) != 5 || got[4] != 4 {
		t.Fatalf("drained %v", got)
	}
}

func TestUnboundedShrinkWhilePush(t *testing.T) {
	pool := NewSegmentPool[int](4, 4)
	u := NewUnbounded(pool, 12)
	for i := 0; i < 8; i++ {
		if !u.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	// Shrink below the current length: nothing dropped, pushes fail.
	u.SetQuota(4)
	if u.Push(99) {
		t.Fatal("push above shrunk quota succeeded")
	}
	if got := u.Len(); got != 8 {
		t.Fatalf("Len = %d after shrink, want 8 (no drops)", got)
	}
	// Drain below the new quota, then pushes resume.
	buf := make([]int, 5)
	if n := u.PopBatch(buf); n != 5 {
		t.Fatalf("PopBatch = %d, want 5", n)
	}
	if !u.Push(8) {
		t.Fatal("push below restored headroom failed")
	}
	got := u.DrainTo(nil)
	want := []int{5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestUnboundedPoolExhaustion(t *testing.T) {
	pool := NewSegmentPool[int](2, 2)
	// Quota far above what the pool can physically back.
	u := NewUnbounded(pool, 100)
	n := 0
	for u.Push(n) {
		n++
	}
	if n != 4 {
		t.Fatalf("accepted %d items, want pool-limited 4", n)
	}
	got := u.DrainTo(nil)
	if len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	// After a full drain the segments recycle: pushes work again.
	if !u.Push(42) {
		t.Fatal("push after recycle failed")
	}
}

// TestUnboundedConcurrentFIFO exercises the wait-free path with a real
// producer/consumer goroutine pair and verifies order + conservation
// (the claims the single-producer fast path rests on).
func TestUnboundedConcurrentFIFO(t *testing.T) {
	pool := NewSegmentPool[int](8, 16)
	u := NewUnbounded(pool, 64)
	const total = 50000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if u.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	want := 0
	buf := make([]int, 37) // odd size to slide across segment bounds
	for want < total {
		n := u.PopBatch(buf)
		if n == 0 {
			runtime.Gosched()
		}
		for i := 0; i < n; i++ {
			if buf[i] != want {
				t.Fatalf("got %d want %d", buf[i], want)
			}
			want++
		}
	}
	wg.Wait()
	if u.Len() != 0 {
		t.Fatalf("Len = %d after drain", u.Len())
	}
}

// TestPropertySegmentedSPMatchesModel drives the single-producer
// Segmented delegate against the plain Queue model with mixed
// push/pushbatch/pop/drain operations.
func TestPropertySegmentedSPMatchesModel(t *testing.T) {
	f := func(ops []uint8, vals []int) bool {
		pool := NewSegmentPool[int](6, 4)
		q := NewSegmentedSP(pool, 10)
		model := &Queue[int]{}
		vi := 0
		nextVal := func() int {
			if len(vals) == 0 {
				return vi
			}
			v := vals[vi%len(vals)]
			vi++
			return v
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				v := nextVal()
				if q.Push(v) {
					model.Push(v)
				} else if model.Len() < q.Quota() {
					// Full only at quota (pool is ample here).
					return false
				}
			case 1:
				batch := make([]int, int(op%5)+1)
				for i := range batch {
					batch[i] = nextVal()
				}
				n := q.PushBatch(batch)
				for i := 0; i < n; i++ {
					model.Push(batch[i])
				}
			case 2:
				got, ok := q.Pop()
				want, wok := model.PopFront()
				if ok != wok || got != want {
					return false
				}
			case 3:
				got := q.DrainTo(nil)
				for _, v := range got {
					want, ok := model.PopFront()
					if !ok || v != want {
						return false
					}
				}
				if model.Len() != 0 {
					return false
				}
			}
			if q.Len() != model.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySegmentedConcurrentProducers drives the multi-producer
// build with real goroutines: several producers mixing Push and
// PushBatch, one consumer mixing Pop and DrainTo, and a third party
// churning the quota over [0, maxQuota], so shrinks below the current
// length happen all the time. Per-producer order must be preserved,
// nothing lost or duplicated, the consumer must never see Len outside
// [0, maxQuota], and while the quota is held at 0 (Len ≥ quota whatever
// the consumer does) no push may be admitted.
func TestPropertySegmentedConcurrentProducers(t *testing.T) {
	const (
		producers = 4
		perProd   = 20000
		maxQuota  = 96
		segSize   = 8
	)
	pool := NewSegmentPool[uint32](2*maxQuota/segSize, segSize)
	q := NewSegmented(pool, maxQuota)
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// attempts[p] counts producer p's completed push calls; done[p] is
	// set when it has pushed everything.
	var attempts [producers]atomic.Uint64
	var done [producers]atomic.Bool

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer done[p].Store(true)
			item := func(seq int) uint32 { return uint32(p)<<24 | uint32(seq) }
			batch := make([]uint32, 0, 7)
			for seq := 0; seq < perProd && !stopped(); {
				n := 0
				if seq%3 == 0 {
					batch = batch[:0]
					for i := seq; i < min(seq+1+seq%7, perProd); i++ {
						batch = append(batch, item(i))
					}
					n = q.PushBatch(batch)
				} else if q.Push(item(seq)) {
					n = 1
				}
				attempts[p].Add(1)
				if n == 0 {
					runtime.Gosched()
				}
				seq += n
			}
		}(p)
	}

	// everyoneTriedTwice returns once each producer still running has
	// completed two more push calls: the second of them began after
	// this function was entered.
	everyoneTriedTwice := func() {
		for p := range attempts {
			for base := attempts[p].Load(); attempts[p].Load() < base+2 && !done[p].Load() && !stopped(); {
				runtime.Gosched()
			}
		}
	}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; !stopped(); i++ {
			q.SetQuota(rng.Intn(maxQuota + 1))
			if n := q.Len(); n < 0 {
				t.Errorf("Len = %d from a third goroutine", n)
				return
			}
			if i%64 == 0 {
				q.SetQuota(0)
				everyoneTriedTwice() // every push call from here on saw quota 0
				before := q.u.pushed.Load()
				everyoneTriedTwice()
				if after := q.u.pushed.Load(); after != before {
					t.Errorf("%d items admitted while the quota was 0", after-before)
					return
				}
			}
			runtime.Gosched()
		}
	}()

	func() {
		defer churn.Wait()
		defer wg.Wait()
		defer close(stop)
		var next [producers]uint32
		got := 0
		check := func(v uint32) {
			p, seq := v>>24, v&(1<<24-1)
			if seq != next[p] {
				t.Fatalf("producer %d: got item %d, want %d", p, seq, next[p])
			}
			next[p]++
			got++
		}
		var buf []uint32
		for round := 0; got < producers*perProd; round++ {
			if n := q.Len(); n < 0 || n > maxQuota {
				t.Fatalf("consumer saw Len = %d, quota never above %d", n, maxQuota)
			}
			before := got
			if round%2 == 0 {
				if v, ok := q.Pop(); ok {
					check(v)
				}
			} else {
				buf = q.DrainTo(buf[:0])
				for _, v := range buf {
					check(v)
				}
			}
			if got == before {
				runtime.Gosched()
			}
		}
	}()
	if t.Failed() {
		return
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d after every item was consumed", n)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("an item was duplicated")
	}
	checkPoolBooks(t, pool, q)
}

// TestArenaGrowthConcurrentDrain: producers grow the arena chunk by
// chunk while the consumer drains the same queue and recycles its
// segments. The consumer lets the backlog rise to a doubling level
// before each drain, so every chunk is made with the consumer at work.
// Per-producer order holds, nothing is lost or duplicated, the pool's
// cap of quota/segSize+1 segments never refuses a push below the
// quota, and the books balance.
func TestArenaGrowthConcurrentDrain(t *testing.T) {
	const (
		producers = 2
		perProd   = 40000
		segSize   = 4
		maxQuota  = 1 << 13
	)
	pool := NewSegmentPool[uint32](maxQuota/segSize+1, segSize)
	q := NewSegmented(pool, maxQuota)
	var wg sync.WaitGroup
	var done atomic.Int32
	var stop atomic.Bool
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer done.Add(1)
			batch := make([]uint32, 0, 8)
			for seq := 0; seq < perProd && !stop.Load(); {
				batch = batch[:0]
				for i := seq; i < min(seq+1+seq%8, perProd); i++ {
					batch = append(batch, uint32(p)<<24|uint32(i))
				}
				n := q.PushBatch(batch)
				if n == 0 {
					runtime.Gosched()
				}
				seq += n
			}
		}(p)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	var next [producers]uint32
	var buf []uint32
	deadline := time.Now().Add(30 * time.Second)
	for got, level := 0, 64; got < producers*perProd; level = min(2*level, maxQuota) {
		for q.Len() < level && done.Load() < producers {
			if time.Now().After(deadline) {
				t.Fatalf("backlog stuck at %d of %d: a push was refused below the quota (%d of %d segments made)",
					q.Len(), level, pool.made, pool.cap)
			}
			runtime.Gosched()
		}
		buf = q.DrainTo(buf[:0])
		for _, v := range buf {
			p, seq := v>>24, v&(1<<24-1)
			if seq != next[p] {
				t.Fatalf("producer %d: got item %d, want %d", p, seq, next[p])
			}
			next[p]++
		}
		got += len(buf)
	}
	wg.Wait()
	if _, ok := q.Pop(); ok {
		t.Fatal("an item was duplicated")
	}
	if pool.made <= firstChunkSlots/segSize {
		t.Fatalf("the arena never grew past its first chunk (%d segments)", pool.made)
	}
	checkPoolBooks(t, pool, q)
}
