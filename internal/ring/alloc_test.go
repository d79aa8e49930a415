package ring

import "testing"

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
