// Package ring provides the queue structures shared by the simulator
// and the live runtime — three types, one per job:
//
//   - SPSC: a lock-free single-producer/single-consumer bounded ring
//     with cache-line-separated indices, cached remote-index snapshots
//     and a multipush PushBatch (Torquati's recipe, PAPERS.md) — the
//     fast path between one producer and its consumer (the paper's
//     pairing is strictly 1:1, §I).
//   - Unbounded: a wait-free SPSC list-of-rings over a SegmentPool
//     (Torquati's uSPSC) carrying the paper's elastic item quota: its
//     dynamic buffer (§V-C, Fig. 8). Segmented is the handle the live
//     runtime holds on it: the same queue with or without a mutex
//     around the producer side, for pairs that do or do not share
//     their producer side between goroutines.
//   - Queue: a plain slice-backed FIFO for the simulator's
//     single-threaded bookkeeping.
package ring

import (
	"fmt"
	"sync/atomic"
)

// SPSC is a bounded lock-free single-producer single-consumer queue.
// Exactly one goroutine may push (Push/PushBatch) and exactly one may
// pop (Pop/PopBatch); Len and Cap are safe from either.
//
// The layout is the cache-conscious SPSC recipe from Torquati's study
// (PAPERS.md): head and tail are monotonically increasing counters
// masked into a power-of-two slot array, each alone on its own
// 64-byte line next to that side's *cached snapshot* of the other
// index, with the cold read-only fields (mask, slots) on a line of
// their own. A steady-state Push touches no consumer-written line: the
// producer re-reads head only when its cached snapshot says the ring
// is full, and vice versa for Pop — so the index lines change hands
// once per wrap, not once per item. Push publishes tail on every item;
// a burst should go through PushBatch, which publishes once.
type SPSC[T any] struct {
	// Cold line: read-only after construction.
	mask  uint64
	slots []T
	_     [32]byte

	// Consumer line.
	head       atomic.Uint64 // next slot to read; consumer-written
	cachedTail uint64        // consumer's snapshot of tail
	_          [48]byte

	// Producer line.
	tail       atomic.Uint64 // published write index; producer-written
	ptail      uint64        // private mirror of tail (avoids atomic re-loads)
	cachedHead uint64        // producer's snapshot of head
	_          [40]byte
}

// NewSPSC returns a ring with capacity rounded up to the next power of
// two (minimum 2). It panics on non-positive capacities.
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: invalid SPSC capacity %d", capacity))
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{mask: uint64(n - 1), slots: make([]T, n)}
}

// Cap returns the ring's capacity.
func (q *SPSC[T]) Cap() int { return len(q.slots) }

// Len returns the number of buffered items. It is a snapshot: with a
// concurrent producer or consumer it may be immediately stale.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// Push appends v, returning false when the ring is full.
func (q *SPSC[T]) Push(v T) bool {
	if q.ptail-q.cachedHead >= uint64(len(q.slots)) {
		q.cachedHead = q.head.Load()
		if q.ptail-q.cachedHead >= uint64(len(q.slots)) {
			return false
		}
	}
	q.slots[q.ptail&q.mask] = v
	q.ptail++
	q.tail.Store(q.ptail)
	return true
}

// PushBatch appends up to len(items) items and returns how many fit,
// publishing the producer index exactly once for the whole batch —
// the multipush write-combining path: a burst costs one index-line
// transfer instead of one per item.
func (q *SPSC[T]) PushBatch(items []T) int {
	space := uint64(len(q.slots)) - (q.ptail - q.cachedHead)
	if space < uint64(len(items)) {
		q.cachedHead = q.head.Load()
		space = uint64(len(q.slots)) - (q.ptail - q.cachedHead)
	}
	n := uint64(len(items))
	if space < n {
		n = space
	}
	if n == 0 {
		return 0
	}
	start := q.ptail & q.mask
	c := copy(q.slots[start:], items[:n])
	if uint64(c) < n {
		copy(q.slots, items[c:n])
	}
	q.ptail += n
	q.tail.Store(q.ptail)
	return int(n)
}

// Pop removes and returns the oldest item, with ok=false when empty.
func (q *SPSC[T]) Pop() (v T, ok bool) {
	head := q.head.Load()
	if head == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if head == q.cachedTail {
			return v, false
		}
	}
	v = q.slots[head&q.mask]
	var zero T
	q.slots[head&q.mask] = zero
	q.head.Store(head + 1)
	return v, true
}

// PopBatch pops up to len(dst) items into dst and returns
// the count, publishing one head advance for the whole batch —
// batching amortizes the index update across the drain, the whole
// point of batch processing in the paper.
func (q *SPSC[T]) PopBatch(dst []T) int {
	head := q.head.Load()
	avail := q.cachedTail - head
	if avail < uint64(len(dst)) {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - head
	}
	n := uint64(len(dst))
	if avail < n {
		n = avail
	}
	if n == 0 {
		return 0
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & q.mask
		dst[i] = q.slots[idx]
		q.slots[idx] = zero
	}
	q.head.Store(head + n)
	return int(n)
}
