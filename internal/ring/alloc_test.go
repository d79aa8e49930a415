package ring

import (
	"math/bits"
	"runtime"
	"testing"
)

// Deterministic zero-allocation checks: single goroutine, no timers,
// no background noise — so these assert exactly zero, not "close to".

func TestSPSCOpsAllocFree(t *testing.T) {
	q := NewSPSC[int](256)
	buf := make([]int, 64)
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 200; i++ {
			q.Push(i)
		}
		for q.PopBatch(buf) > 0 {
		}
		q.PushBatch(buf)
		q.PopBatch(buf)
	}); avg != 0 {
		t.Fatalf("SPSC ops allocate: %.2f allocs/run", avg)
	}
}

func TestUnboundedOpsAllocFree(t *testing.T) {
	pool := NewSegmentPool[int](8, 64)
	q := NewUnbounded[int](pool, 4*64)
	buf := make([]int, 96)
	// Warm up: touch every segment the quota allows so the recycle ring
	// is primed and no further pool traffic is needed.
	for round := 0; round < 8; round++ {
		for q.PushBatch(buf) > 0 {
		}
		for q.PopBatch(buf) > 0 {
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for q.PushBatch(buf) > 0 {
		}
		for q.PopBatch(buf) > 0 {
		}
	}); avg != 0 {
		t.Fatalf("Unbounded ops allocate: %.2f allocs/run", avg)
	}
}

// TestDrainToScratchGrowsGeometrically: a consumer reusing one scratch
// slice across drains that rise 1 → 4096 items pays one allocation per
// doubling (13), not one per new high-water drain.
func TestDrainToScratchGrowsGeometrically(t *testing.T) {
	const top = 4096
	pool := NewSegmentPool[int](2*top/64, 64)
	q := NewUnbounded[int](pool, top)
	items := make([]int, top)
	var scratch []int
	// AllocsPerRun warms up with one untimed call: each call starts
	// from an empty scratch, so the timed one pays every growth again.
	if allocs := testing.AllocsPerRun(1, func() {
		scratch = nil
		for n := 1; n <= top; n++ {
			q.PushBatch(items[:n])
			scratch = q.DrainTo(scratch[:0])
		}
	}); allocs > 13 {
		t.Fatalf("drains rising 1 → %d allocated %.0f times, want ≤ 13", top, allocs)
	}
	if len(scratch) != top {
		t.Fatalf("last drain returned %d items, want %d", len(scratch), top)
	}
}

// TestArenaGrowthAllocs: a queue that grows from empty to n items
// costs O(log n) allocations, because its pool's chunks double, and
// refilling it to the same level after a drain costs none. The pool
// makes at most twice the segments the queue needed.
func TestArenaGrowthAllocs(t *testing.T) {
	const segSize, n = 16, 1 << 16
	var p *SegmentPool[int]
	var q *Unbounded[int]
	items := make([]int, 100)
	fill := func() {
		for q.Len() < n {
			if q.PushBatch(items[:min(len(items), n-q.Len())]) == 0 {
				t.Fatalf("push refused at %d of %d items", q.Len(), n)
			}
		}
	}
	// AllocsPerRun's warm-up call builds a pool of its own too, so the
	// measured call grows a fresh queue from nothing.
	grow := testing.AllocsPerRun(1, func() {
		p = NewSegmentPool[int](1<<20/segSize, segSize)
		q = NewUnbounded(p, n)
		fill()
	})
	// Chunks of 1024, 1024, 2048, ... slots up to n: two allocations
	// each (slots and headers), plus the pool, the queue and the two of
	// its recycle ring — 18 in all. The bound doubles that: the growth
	// sets off collections, and the runtime's own allocations for them
	// count in the process-wide figure now and then.
	chunks := bits.Len(uint(n / firstChunkSlots))
	if limit := float64(2 * (2*chunks + 4)); grow > limit {
		t.Fatalf("growing to %d items allocated %.0f times, want ≤ %.0f", n, grow, limit)
	}
	if p.made*segSize > 2*n {
		t.Fatalf("pool made %d slots for %d items", p.made*segSize, n)
	}
	buf := make([]int, 4096)
	runtime.GC() // no collection the growth set off is still running
	if refill := testing.AllocsPerRun(5, func() {
		for q.PopBatch(buf) > 0 {
		}
		fill()
	}); refill != 0 {
		t.Fatalf("refilling to %d items allocated %.2f times per run", n, refill)
	}
}
