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
