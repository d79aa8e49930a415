package main

import (
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/internal/ring"
)

// pingPongTables is the CPU-pinned SPSC ping-pong microbench from
// Torquati's study: a producer OS thread and a consumer OS thread
// (each runtime.LockOSThread-pinned so the scheduler cannot migrate
// them mid-run) stream items through one ring.SPSC, measuring the raw
// per-item cost of each queue recipe with no Pair machinery on top.
//
//   - eager:      Push, publishing the index on every item — the
//     textbook SPSC, one cache-line transfer per item.
//   - multipush:  PushBatch in chunks of 64 — write combining on the
//     slot copies and a single index publication per chunk.
//
// The ring, the consumer goroutine, and all scratch buffers are set up
// before the timer starts, so ns/op is ns/item and allocs/op is the
// steady state — which must be zero for every variant.
func pingPongTables() exp.Table {
	t := exp.Table{
		ID:    "pingpong",
		Title: "Pinned SPSC ping-pong (LockOSThread, ns/item)",
		Columns: []exp.Column{
			{Key: "ns_per_item", Header: "ns/item", Format: "%.2f"},
			{Key: "allocs_per_op", Header: "allocs/op", Format: "%.0f"},
		},
	}
	variants := []struct {
		label string
		bench func(b *testing.B)
	}{
		{"eager", func(b *testing.B) { pingPongByItem(b, ring.NewSPSC[int](pingCap)) }},
		{"multipush", func(b *testing.B) { pingPongByChunk(b, ring.NewSPSC[int](pingCap)) }},
	}
	for _, v := range variants {
		r := testing.Benchmark(v.bench)
		t.Rows = append(t.Rows, exp.Row{Label: v.label, Values: map[string]float64{
			"ns_per_item":   float64(r.NsPerOp()),
			"allocs_per_op": float64(r.AllocsPerOp()),
		}})
	}
	return t
}

const (
	pingCap   = 1 << 12
	pingChunk = 64
	pingStop  = -1 // sentinel item: tells the pinned consumer to exit
)

// startConsumer launches the pinned consumer before the timer starts.
// It drains through PopBatch — how the runtime's manager consumes too —
// until the pingStop sentinel appears, then signals done.
func startConsumer(q *ring.SPSC[int]) chan struct{} {
	done := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]int, 256)
		for {
			c := q.PopBatch(buf)
			if c == 0 {
				runtime.Gosched()
				continue
			}
			for _, it := range buf[:c] {
				if it == pingStop {
					close(done)
					return
				}
			}
		}
	}()
	return done
}

func pingPongByItem(b *testing.B, q *ring.SPSC[int]) {
	b.ReportAllocs()
	done := startConsumer(q)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	b.ResetTimer()
	for i := 0; i < b.N; {
		if q.Push(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	for !q.Push(pingStop) {
		runtime.Gosched()
	}
	<-done
}

func pingPongByChunk(b *testing.B, q *ring.SPSC[int]) {
	b.ReportAllocs()
	done := startConsumer(q)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]int, pingChunk)
	b.ResetTimer()
	for i := 0; i < b.N; {
		c := pingChunk
		if b.N-i < c {
			c = b.N - i
		}
		pushed := q.PushBatch(buf[:c])
		if pushed == 0 {
			runtime.Gosched()
		}
		i += pushed
	}
	b.StopTimer()
	for !q.Push(pingStop) {
		runtime.Gosched()
	}
	<-done
}
