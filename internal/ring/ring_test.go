package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d", q.Cap())
	}
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("Push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push into full ring should fail")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty ring should fail")
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	if got := NewSPSC[int](5).Cap(); got != 8 {
		t.Fatalf("Cap(5) rounds to %d, want 8", got)
	}
	if got := NewSPSC[int](1).Cap(); got != 2 {
		t.Fatalf("Cap(1) rounds to %d, want 2", got)
	}
}

func TestSPSCInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSPSC[int](0)
}

func TestSPSCWrapAround(t *testing.T) {
	q := NewSPSC[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*10 + i) {
				t.Fatalf("round %d push %d failed", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d pop = %d,%v", round, v, ok)
			}
		}
	}
}

func TestSPSCPopBatch(t *testing.T) {
	q := NewSPSC[int](8)
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	dst := make([]int, 4)
	if n := q.PopBatch(dst); n != 4 {
		t.Fatalf("PopBatch = %d", n)
	}
	for i := 0; i < 4; i++ {
		if dst[i] != i {
			t.Fatalf("dst = %v", dst)
		}
	}
	if n := q.PopBatch(dst); n != 2 {
		t.Fatalf("second PopBatch = %d", n)
	}
	if n := q.PopBatch(dst); n != 0 {
		t.Fatalf("empty PopBatch = %d", n)
	}
	if n := q.PopBatch(nil); n != 0 {
		t.Fatalf("nil dst PopBatch = %d", n)
	}
}

// Concurrent FIFO correctness under the race detector.
func TestSPSCConcurrent(t *testing.T) {
	q := NewSPSC[int](64)
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if q.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var got []int
	go func() {
		defer wg.Done()
		buf := make([]int, 32)
		for len(got) < n {
			k := q.PopBatch(buf)
			got = append(got, buf[:k]...)
			if k == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

func TestSPSCPushBatchMultipush(t *testing.T) {
	q := NewSPSC[int](8)
	// Offset the indices so the batch wraps the slot array.
	for i := 0; i < 5; i++ {
		q.Push(-1)
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	batch := []int{0, 1, 2, 3, 4, 5, 6}
	if n := q.PushBatch(batch); n != 7 {
		t.Fatalf("PushBatch = %d, want 7", n)
	}
	// One publication for the whole batch: all visible immediately.
	if got := q.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
	dst := make([]int, 7)
	if n := q.PopBatch(dst); n != 7 {
		t.Fatalf("PopBatch = %d, want 7", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
}

func TestSPSCPushBatchPartialFit(t *testing.T) {
	q := NewSPSC[int](4)
	batch := []int{0, 1, 2, 3, 4, 5}
	if n := q.PushBatch(batch); n != 4 {
		t.Fatalf("PushBatch = %d, want capacity-limited 4", n)
	}
	if n := q.PushBatch(batch); n != 0 {
		t.Fatalf("PushBatch on full = %d, want 0", n)
	}
}

// TestPropertySPSCFIFO: a real producer goroutine pushes a random
// sequence through a ring of random capacity, mixing Push with
// PushBatch chunks of a random size, while a real consumer pops
// concurrently; the consumer must observe exactly the pushed sequence,
// in order.
func TestPropertySPSCFIFO(t *testing.T) {
	f := func(capSeed, chunkSeed uint8, items []int32) bool {
		q := NewSPSC[int32](int(capSeed%63) + 2)
		chunk := int(chunkSeed%17) + 1
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(items); {
				var n int
				if i%2 == 0 {
					n = q.PushBatch(items[i:min(i+chunk, len(items))])
				} else if q.Push(items[i]) {
					n = 1
				}
				if n == 0 {
					runtime.Gosched()
				}
				i += n
			}
		}()
		ok := true
		for n := 0; n < len(items); {
			v, got := q.Pop()
			if !got {
				runtime.Gosched()
				continue
			}
			ok = ok && v == items[n]
			n++
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SPSC behaves exactly like a bounded FIFO reference model
// under an arbitrary single-threaded op sequence.
func TestPropertySPSCMatchesModel(t *testing.T) {
	f := func(ops []byte) bool {
		q := NewSPSC[int](8)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				pushed := q.Push(next)
				modelPushed := len(model) < q.Cap()
				if pushed != modelPushed {
					return false
				}
				if pushed {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentPoolGeometry: a new pool records its geometry and has
// made nothing yet.
func TestSegmentPoolGeometry(t *testing.T) {
	p := NewSegmentPool[int](4, 8)
	if p.cap != 4 || p.segSize != 8 || p.made != 0 || p.nfree != 0 {
		t.Fatalf("pool: cap %d, segSize %d, made %d, free %d", p.cap, p.segSize, p.made, p.nfree)
	}
}

// TestSegmentPoolMakesChunksOnDemand: a pool makes a first chunk of
// firstChunkSlots' worth of segments plus one on first demand, then
// chunks as large as everything made so far, and stops at its cap.
func TestSegmentPoolMakesChunksOnDemand(t *testing.T) {
	const segSize, capSegs = 16, 200
	p := NewSegmentPool[int](capSegs, segSize)
	q := NewSegmentedSP(p, 2*capSegs*segSize)
	first := firstChunkSlots/segSize + 1
	// Items pushed from a fresh queue start at a segment boundary, so
	// k segments hold exactly k*segSize of them.
	for _, step := range []struct{ items, made int }{
		{0, first}, // the queue's first tail
		{first * segSize, first},
		{first*segSize + 1, 2 * first},
		{2 * first * segSize, 2 * first},
		{2*first*segSize + 1, capSegs},
		{capSegs * segSize, capSegs},
	} {
		for q.Len() < step.items {
			if !q.Push(q.Len()) {
				t.Fatalf("push %d failed with %d of %d segments made", q.Len(), p.made, p.cap)
			}
		}
		if p.made != step.made {
			t.Fatalf("holding %d items the pool made %d segments, want %d", step.items, p.made, step.made)
		}
	}
	if q.Push(0) {
		t.Fatal("a push past the pool's cap was admitted")
	}
	checkPoolBooks(t, p, q)
}

// TestSegmentPoolPartReadHeadFits: a queue at a power-of-two quota whose
// head segment is part-read needs quota/segSize + 1 segments. The pool
// must not make a whole extra chunk, as large as everything it has
// made, for that one segment: filled to quota, read 100 items, and
// refilled, the queue's pool holds fewer than twice the segments the
// quota alone needs.
func TestSegmentPoolPartReadHeadFits(t *testing.T) {
	const segSize = 16
	for _, quota := range []int{1 << 10, 1 << 15, 1 << 16} {
		p := NewSegmentPool[int](4*quota/segSize, segSize)
		q := NewSegmentedSP(p, quota)
		items := make([]int, 256)
		fill := func() {
			for q.Len() < quota {
				if q.PushBatch(items[:min(len(items), quota-q.Len())]) == 0 {
					t.Fatalf("quota %d: push refused at %d items", quota, q.Len())
				}
			}
		}
		fill()
		for i := 0; i < 100; i++ {
			q.Pop()
		}
		fill()
		if need := quota/segSize + 1; p.made < need || p.made >= 2*(need-1) {
			t.Fatalf("quota %d with a part-read head: pool made %d segments for the %d it needs", quota, p.made, need)
		}
		checkPoolBooks(t, p, q)
	}
}

func TestSegmentPoolInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSegmentPool[int](0, 8)
}

// checkPoolBooks asserts the arena invariant while nobody is pushing or
// popping: every segment p has made is in exactly one place — free in
// the pool, linked into one queue's chain (consumer's segment through
// producer's), or waiting in one queue's recycle ring — and p has made
// no more than its cap.
func checkPoolBooks[T any](t *testing.T, p *SegmentPool[T], queues ...*Segmented[T]) {
	t.Helper()
	if p.made > p.cap {
		t.Fatalf("pool made %d segments, cap %d", p.made, p.cap)
	}
	seen := make(map[*Seg[T]]string, p.made)
	note := func(seg *Seg[T], where string) {
		t.Helper()
		if prev, dup := seen[seg]; dup {
			t.Fatalf("segment %p is both %s and %s", seg, prev, where)
		}
		seen[seg] = where
	}
	free := 0
	for seg := p.free; seg != nil; seg = seg.next.Load() {
		note(seg, "free")
		free++
	}
	if free != p.nfree {
		t.Fatalf("%d segments on the free list, pool counts %d", free, p.nfree)
	}
	for _, q := range queues {
		for seg := q.u.phead; seg != nil; seg = seg.next.Load() {
			note(seg, "linked")
		}
		r := q.u.recycle
		for i := r.head.Load(); i != r.tail.Load(); i++ {
			note(r.slots[i&r.mask], "recycled")
		}
	}
	if len(seen) != p.made {
		t.Fatalf("%d of %d segments made accounted for (%d free)", len(seen), p.made, free)
	}
}

func TestSegmentedFIFO(t *testing.T) {
	p := NewSegmentPool[int](8, 4)
	q := NewSegmented(p, 20)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			if !q.Push(i) {
				t.Fatalf("round %d: push %d failed", round, i)
			}
		}
		if q.Push(99) {
			t.Fatal("push beyond quota should fail")
		}
		if q.Len() != 20 {
			t.Fatalf("Len = %d", q.Len())
		}
		for i := 0; i < 20; i++ {
			v, ok := q.Pop()
			if !ok || v != i {
				t.Fatalf("round %d: pop %d = %d,%v", round, i, v, ok)
			}
		}
		checkPoolBooks(t, p, q)
	}
	// 20 items need at most 6 segments of 4; later rounds refill from
	// the queue's recycle ring and take no more from the pool.
	if p.nfree < 2 {
		t.Fatalf("queue took %d segments for 20 items", p.made-p.nfree)
	}
}

func TestSegmentedQuota(t *testing.T) {
	p := NewSegmentPool[int](4, 4)
	q := NewSegmented(p, 2)
	if q.Quota() != 2 {
		t.Fatalf("Quota = %d", q.Quota())
	}
	q.Push(1)
	q.Push(2)
	if q.Push(3) {
		t.Fatal("quota should block")
	}
	q.SetQuota(4)
	if !q.Push(3) {
		t.Fatal("raised quota should admit")
	}
	// Shrinking below current length: pushes blocked, pops fine.
	q.SetQuota(1)
	if q.Push(4) {
		t.Fatal("shrunk quota should block pushes")
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("pop after shrink = %d,%v", v, ok)
	}
	q.SetQuota(-5)
	if q.Quota() != 0 {
		t.Fatalf("negative quota should clamp to 0, got %d", q.Quota())
	}
}

func TestSegmentedPoolExhaustion(t *testing.T) {
	p := NewSegmentPool[int](4, 2)
	a := NewSegmented(p, 100) // each queue claims its first segment here
	b := NewSegmented(p, 100)
	for i := 0; i < 6; i++ {
		if !a.Push(i) {
			t.Fatalf("a.Push %d failed", i)
		}
	}
	if a.Push(6) {
		t.Fatal("pool exhausted: a should fail below its quota")
	}
	if !b.Push(0) || !b.Push(1) {
		t.Fatal("b should fill the segment it holds")
	}
	if b.Push(2) {
		t.Fatal("pool exhausted: b should fail")
	}
	// A drained queue keeps its segments to refill from, so a can push
	// again and b still cannot grow.
	if got := a.DrainTo(nil); len(got) != 6 {
		t.Fatalf("drained %d, want 6", len(got))
	}
	if !a.Push(6) {
		t.Fatal("a should refill from its own drained segments")
	}
	if b.Push(2) {
		t.Fatal("a's drained segments are not b's to take")
	}
	checkPoolBooks(t, p, a, b)
}

func TestSegmentedDrainTo(t *testing.T) {
	p := NewSegmentPool[int](8, 4)
	q := NewSegmented(p, 10)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	out := q.DrainTo(make([]int, 0, 10))
	if len(out) != 10 {
		t.Fatalf("drained %d", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out = %v", out)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
	if out = q.DrainTo(out[:0]); len(out) != 0 {
		t.Fatalf("second drain returned %v", out)
	}
	checkPoolBooks(t, p, q)
}

func TestSegmentedNegativeQuotaPanics(t *testing.T) {
	p := NewSegmentPool[int](1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSegmented(p, -1)
}

// Property: Segmented matches a quota-bounded FIFO model, and the
// arena's books balance across arbitrary op sequences.
func TestPropertySegmentedMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p := NewSegmentPool[int](6, 4)
		quota := rng.Intn(30)
		q := NewSegmented(p, quota)
		var model []int
		next := 0
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				ok := q.Push(next)
				if ok {
					model = append(model, next)
					if len(model) > quota {
						t.Fatalf("trial %d: quota exceeded", trial)
					}
				} else if starved := q.u.pw == p.segSize && q.u.recycle.Len() == 0 && p.nfree == 0 && p.made == p.cap; len(model) < quota && !starved {
					// Failure is only legitimate at quota or when a new
					// segment was needed and unavailable.
					t.Fatalf("trial %d: spurious push failure (len=%d quota=%d free=%d)",
						trial, q.Len(), quota, p.nfree)
				}
				next++
			case 2:
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("trial %d: pop ok mismatch", trial)
				}
				if ok {
					if v != model[0] {
						t.Fatalf("trial %d: FIFO violated", trial)
					}
					model = model[1:]
				}
			case 3:
				quota = rng.Intn(30)
				q.SetQuota(quota)
			}
			if q.Len() != len(model) {
				t.Fatalf("trial %d: len mismatch %d vs %d", trial, q.Len(), len(model))
			}
		}
		if got := q.DrainTo(nil); len(got) != len(model) {
			t.Fatalf("trial %d: final drain %d items, model holds %d", trial, len(got), len(model))
		}
		checkPoolBooks(t, p, q)
	}
}

func BenchmarkSPSCPushPop(b *testing.B) {
	q := NewSPSC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}

func BenchmarkSegmentedPushPop(b *testing.B) {
	p := NewSegmentPool[int](16, 64)
	q := NewSegmented(p, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}
