package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Seg is one pool segment: a fixed-size slot array plus the intrusive
// link Unbounded chains segments with (and the pool chains its free
// segments with). A pool makes segments in chunks as its queues first
// need them and keeps every one it makes, so a queue that has reached
// its high-water mark takes no new memory. A segment carries no
// cursors: the queue holding it keeps its own read and write positions.
type Seg[T any] struct {
	slots []T
	next  atomic.Pointer[Seg[T]]
}

// firstChunkSlots is the slot count a pool's first chunk holds beyond
// its one extra segment: a queue that never holds more than this many
// items makes exactly one chunk, the first time it needs a segment, even
// when its head segment is part-read.
const firstChunkSlots = 1024

// SegmentPool is the arena of fixed-size segments that Unbounded
// queues draw from: the physical backing of the paper's dynamic
// buffer, which grows and shrinks as "linked lists, not actual
// contiguous resizing" (§V-C, Fig. 8), built the way Torquati's uSPSC
// builds its list of rings — from buffers taken as the queue needs
// them. A queue grows by taking a segment from the pool; a segment it
// has drained goes back to that queue's own recycle ring, not to the
// pool, so a queue keeps the segments it once needed.
//
// The pool makes nothing at construction. When its free list runs dry
// it makes a chunk: firstChunkSlots' worth of segments plus one first,
// then each time as many segments as it has made so far, never more
// than its cap in all. So it holds (firstChunkSlots/segSize + 1)·2ᵏ
// segments after k+1 chunks, and a queue at a power-of-two quota Q ≥
// firstChunkSlots, which needs Q/segSize segments plus one for a
// part-read head, fits in exactly the chunks that Q alone would take. It frees none of them, so once its queues have reached their
// high-water mark the pool allocates nothing more. The runtime gives
// every pair a private pool capped at the most the quota ledger can
// lend it, and the elastic walls between consumers are internal/buffer's
// item quotas.
type SegmentPool[T any] struct {
	mu      sync.Mutex
	segSize int
	cap     int     // most segments the pool will ever make
	made    int     // segments made so far
	free    *Seg[T] // unclaimed segments, linked through next
	nfree   int
}

// NewSegmentPool returns a pool of at most segments segments of
// segSize item slots each. It allocates no slot until a queue first
// takes a segment.
func NewSegmentPool[T any](segments, segSize int) *SegmentPool[T] {
	if segments <= 0 || segSize <= 0 {
		panic(fmt.Sprintf("ring: invalid pool geometry %d×%d", segments, segSize))
	}
	return &SegmentPool[T]{segSize: segSize, cap: segments}
}

func (p *SegmentPool[T]) acquire() (*Seg[T], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil && !p.makeChunk() {
		return nil, false
	}
	seg := p.free
	p.free = seg.next.Load()
	p.nfree--
	seg.next.Store(nil)
	return seg, true
}

// makeChunk makes the pool's next chunk of segments and puts them on
// the free list, lowest address first, reporting false at the cap. One
// backing array and one header array serve the chunk for the pool's
// whole life. Caller holds mu.
func (p *SegmentPool[T]) makeChunk() bool {
	n := p.made
	if n == 0 {
		n = firstChunkSlots/p.segSize + 1
	}
	if n = min(n, p.cap-p.made); n == 0 {
		return false
	}
	backing := make([]T, n*p.segSize)
	nodes := make([]Seg[T], n)
	for i := n - 1; i >= 0; i-- {
		nodes[i].slots = backing[i*p.segSize : (i+1)*p.segSize : (i+1)*p.segSize]
		nodes[i].next.Store(p.free)
		p.free = &nodes[i]
	}
	p.made += n
	p.nfree += n
	return true
}

func (p *SegmentPool[T]) release(seg *Seg[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nfree >= p.made {
		panic("ring: segment released twice")
	}
	seg.next.Store(p.free)
	p.free = seg
	p.nfree++
}

// Segmented is the elastic FIFO the live runtime's pairs buffer in: an
// Unbounded behind an optional producer lock. There is one algorithm
// and two builds of it:
//
//   - NewSegmentedSP: no lock. Exactly one goroutine may push at a time,
//     and Push/PushBatch are wait-free.
//   - NewSegmented: Push and PushBatch take a mutex, so any number of
//     goroutines may push; the lock makes them a single writer by
//     construction.
//
// The lock covers the producer side only. Pop and DrainTo still need
// exactly one consumer at a time (the pair's drain lock provides it)
// and never take the mutex, so in both builds the consumer is
// wait-free and a drain never waits behind a producer. Len, Quota and
// SetQuota are safe from any goroutine.
type Segmented[T any] struct {
	u      *Unbounded[T]
	locked bool
	mu     sync.Mutex // serialises producers when locked
}

// NewSegmented returns an elastic queue with the given initial item
// quota drawing from pool, safe for concurrent producers.
func NewSegmented[T any](pool *SegmentPool[T], quota int) *Segmented[T] {
	return &Segmented[T]{u: NewUnbounded(pool, quota), locked: true}
}

// NewSegmentedSP returns the lock-free single-producer build. The
// caller must guarantee at most one pushing goroutine at a time.
func NewSegmentedSP[T any](pool *SegmentPool[T], quota int) *Segmented[T] {
	return &Segmented[T]{u: NewUnbounded(pool, quota)}
}

// Push appends v, returning false when the quota is reached or the pool
// has no segment to back the growth.
func (q *Segmented[T]) Push(v T) bool {
	if !q.locked {
		return q.u.Push(v)
	}
	q.mu.Lock()
	ok := q.u.Push(v)
	q.mu.Unlock()
	return ok
}

// PushBatch appends items in order, stopping at the quota (or when the
// pool runs dry) and returning how many were accepted: one quota
// negotiation, one index publication and at most one lock acquisition
// for the whole batch.
func (q *Segmented[T]) PushBatch(items []T) int {
	if !q.locked {
		return q.u.PushBatch(items)
	}
	q.mu.Lock()
	n := q.u.PushBatch(items)
	q.mu.Unlock()
	return n
}

// Len returns the number of buffered items.
func (q *Segmented[T]) Len() int { return q.u.Len() }

// Quota returns the current item quota.
func (q *Segmented[T]) Quota() int { return q.u.Quota() }

// SetQuota adjusts the item quota (see Unbounded.SetQuota: a shrink
// below the current length drops nothing).
func (q *Segmented[T]) SetQuota(quota int) { q.u.SetQuota(quota) }

// Pop removes the oldest item. Consumer only; never takes the lock.
func (q *Segmented[T]) Pop() (v T, ok bool) { return q.u.Pop() }

// DrainTo pops every buffered item into dst (appending) and returns the
// extended slice. Consumer only; never takes the lock.
func (q *Segmented[T]) DrainTo(dst []T) []T { return q.u.DrainTo(dst) }
