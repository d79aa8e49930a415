package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Seg is one pool segment: a fixed-size slot array plus the intrusive
// link Unbounded chains segments with. Nodes are preallocated by the
// pool together with their backing storage, so acquiring a segment
// never allocates — the arena hands back the same headers it was built
// with, forever. A segment carries no cursors: the queue holding it
// keeps its own read and write positions.
type Seg[T any] struct {
	slots []T
	next  atomic.Pointer[Seg[T]]
}

// SegmentPool is a preallocated arena of fixed-size segments that
// Unbounded queues draw from: the physical backing of the paper's
// dynamic buffer, which grows and shrinks as "linked lists, not actual
// contiguous resizing" (§V-C, Fig. 8). A queue grows by taking a
// segment from the pool; a segment it has drained goes back to that
// queue's own recycle ring, not to the pool, so a queue keeps the
// segments it once needed. The runtime therefore gives every pair a
// private pool sized to the most it may ever be lent, and the elastic
// walls between consumers are internal/buffer's item quotas. Neither
// the pool nor its segment headers allocate after construction.
type SegmentPool[T any] struct {
	mu      sync.Mutex
	segSize int
	free    []*Seg[T]
	total   int
}

// NewSegmentPool builds a pool of segments×segSize item slots. One
// backing array and one header array serve every segment for the
// pool's whole life.
func NewSegmentPool[T any](segments, segSize int) *SegmentPool[T] {
	if segments <= 0 || segSize <= 0 {
		panic(fmt.Sprintf("ring: invalid pool geometry %d×%d", segments, segSize))
	}
	p := &SegmentPool[T]{segSize: segSize, total: segments}
	backing := make([]T, segments*segSize)
	nodes := make([]Seg[T], segments)
	p.free = make([]*Seg[T], segments)
	for i := 0; i < segments; i++ {
		nodes[i].slots = backing[i*segSize : (i+1)*segSize : (i+1)*segSize]
		p.free[i] = &nodes[i]
	}
	return p
}

// SegSize returns the items per segment.
func (p *SegmentPool[T]) SegSize() int { return p.segSize }

// Total returns the pool's total segment count.
func (p *SegmentPool[T]) Total() int { return p.total }

// FreeSegments returns how many segments are currently unclaimed.
func (p *SegmentPool[T]) FreeSegments() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

func (p *SegmentPool[T]) acquire() (*Seg[T], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return nil, false
	}
	seg := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	seg.next.Store(nil)
	return seg, true
}

func (p *SegmentPool[T]) release(seg *Seg[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= p.total {
		panic("ring: segment released twice")
	}
	seg.next.Store(nil)
	p.free = append(p.free, seg)
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
