package ring

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Unbounded is a wait-free single-producer/single-consumer FIFO built
// as a linked list of fixed-size ring segments drawn from a
// SegmentPool — Torquati's unbounded "list of SPSC buffers" (uSPSC,
// PAPERS.md) fitted with the paper's elastic quota. "Unbounded" means
// the queue itself imposes no structural capacity: admission is
// governed purely by the item quota and by the pool backing the
// growth, which makes its segments as the queue first reaches for them.
//
// Exactly one goroutine may push (Push/PushBatch) and one may pop
// (Pop/PopBatch/DrainTo) at a time; Len, Quota and SetQuota are safe
// from any goroutine. The two sides share only three cache lines:
//
//   - the producer line: the published item count (pushed) plus the
//     producer's private cursor into its tail segment and its cached
//     snapshot of the consumer's count. A steady-state Push writes no
//     consumer-owned line; the consumer count is re-read only when the
//     quota check would otherwise fail.
//   - the consumer line: the published consumed count (popped), the
//     consumer's segment cursor and its cached snapshot of pushed.
//   - a cold line of read-mostly fields (quota, pool, recycle ring).
//
// Segment hand-off is wait-free in steady state: drained segments are
// recycled to the producer through a small SPSC ring instead of the
// pool's mutex, so neither side takes a lock once the queue has warmed
// up, unless it was lent more than its recycle ring holds (see
// NewUnbounded). The producer links a new segment before publishing
// the items in it, so a consumer that observes pushed > popped always
// finds the items' segments reachable.
type Unbounded[T any] struct {
	_ [64]byte

	// Producer-owned line.
	pushed       atomic.Uint64 // published item count (consumer-read)
	ppushed      uint64        // private item count (may run ahead inside PushBatch)
	cachedPopped uint64        // producer's snapshot of popped
	ptail        *Seg[T]       // segment being written
	pw           int           // write index into ptail
	_            [24]byte

	// Consumer-owned line.
	popped       atomic.Uint64 // published consumed count (producer-read)
	cpopped      uint64        // private consumed count
	cachedPushed uint64        // consumer's snapshot of pushed
	phead        *Seg[T]       // segment being read
	pr           int           // read index into phead
	_            [24]byte

	// Cold, read-mostly.
	quota   atomic.Int64
	pool    *SegmentPool[T]
	recycle *SPSC[*Seg[T]] // consumer → producer drained-segment hand-back
}

// NewUnbounded returns a queue with the given item quota drawing its
// segments from pool. One segment is claimed immediately (the queue
// needs a tail to write into); it panics if the pool cannot supply it.
//
// The recycle ring is sized from the initial quota, not from the
// pool's cap: it holds twice the segments that quota spans (at most
// the pool's cap). A queue lent a quota beyond that hands its extra
// drained segments back through the pool's mutex instead.
func NewUnbounded[T any](pool *SegmentPool[T], quota int) *Unbounded[T] {
	if quota < 0 {
		panic(fmt.Sprintf("ring: negative quota %d", quota))
	}
	seg, ok := pool.acquire()
	if !ok {
		panic("ring: pool exhausted at Unbounded construction")
	}
	spans := (quota + pool.segSize - 1) / pool.segSize
	u := &Unbounded[T]{pool: pool, recycle: NewSPSC[*Seg[T]](min(2*spans, pool.cap) + 1)}
	u.quota.Store(int64(quota))
	u.ptail = seg
	u.phead = seg
	return u
}

// Len returns the number of buffered items (published pushes minus
// published pops). Safe from any goroutine; with concurrent push/pop
// it is a snapshot. popped is read first: both counts only grow and
// popped never passes pushed, so the difference cannot go negative (it
// can over-count by what was popped between the two loads).
func (u *Unbounded[T]) Len() int {
	popped := u.popped.Load()
	return int(u.pushed.Load() - popped)
}

// Quota returns the current item quota.
func (u *Unbounded[T]) Quota() int { return int(u.quota.Load()) }

// SetQuota adjusts the item quota (clamped at 0). Shrinking below the
// current length drops nothing: pushes fail until the queue drains
// below the new quota.
func (u *Unbounded[T]) SetQuota(quota int) {
	if quota < 0 {
		quota = 0
	}
	u.quota.Store(int64(quota))
}

// headroom returns how many items may be admitted under the quota,
// refreshing the cached consumer count only when the stale snapshot is
// not enough to admit want items — the cache-line-frugal quota check.
func (u *Unbounded[T]) headroom(want int) int {
	q := uint64(u.quota.Load())
	used := u.ppushed - u.cachedPopped
	if used+uint64(want) > q {
		u.cachedPopped = u.popped.Load()
		used = u.ppushed - u.cachedPopped
	}
	if used >= q {
		return 0
	}
	if room := q - used; room < uint64(want) {
		return int(room)
	}
	return want
}

// grow links a fresh segment after ptail, preferring the wait-free
// recycle ring over the pool mutex. The link is published before any
// item in the new segment is, so the consumer can always walk to what
// it has been promised.
func (u *Unbounded[T]) grow() bool {
	seg, ok := u.recycle.Pop()
	if !ok {
		if seg, ok = u.pool.acquire(); !ok {
			return false
		}
	}
	seg.next.Store(nil)
	u.ptail.next.Store(seg)
	u.ptail = seg
	u.pw = 0
	return true
}

// Push appends v, returning false when the quota is reached or no
// segment can back the growth. Producer goroutine only.
func (u *Unbounded[T]) Push(v T) bool {
	if u.headroom(1) == 0 {
		return false
	}
	if u.pw == len(u.ptail.slots) && !u.grow() {
		return false
	}
	u.ptail.slots[u.pw] = v
	u.pw++
	u.ppushed++
	u.pushed.Store(u.ppushed)
	return true
}

// PushBatch appends items in order, returning how many were accepted
// (quota- or pool-limited). The whole batch costs one quota
// negotiation and one index publication — the write-combining bulk
// path. Producer goroutine only.
func (u *Unbounded[T]) PushBatch(items []T) int {
	n := u.headroom(len(items))
	if n == 0 {
		return 0
	}
	pushed := 0
	for pushed < n {
		if u.pw == len(u.ptail.slots) && !u.grow() {
			break
		}
		c := copy(u.ptail.slots[u.pw:], items[pushed:n])
		u.pw += c
		pushed += c
	}
	if pushed > 0 {
		u.ppushed += uint64(pushed)
		u.pushed.Store(u.ppushed)
	}
	return pushed
}

// advanceHead steps the consumer to the next segment, handing the
// drained one back to the producer via the recycle ring (pool fallback
// keeps the arena's books when the ring is full, which happens when the
// queue holds more segments than its initial quota spans twice over).
// Only called when more published items exist, so next is always
// linked.
func (u *Unbounded[T]) advanceHead() {
	old := u.phead
	u.phead = old.next.Load()
	u.pr = 0
	if !u.recycle.Push(old) {
		u.pool.release(old)
	}
}

// Pop removes the oldest item. Consumer goroutine only.
func (u *Unbounded[T]) Pop() (v T, ok bool) {
	if u.cpopped == u.cachedPushed {
		u.cachedPushed = u.pushed.Load()
		if u.cpopped == u.cachedPushed {
			return v, false
		}
	}
	if u.pr == len(u.phead.slots) {
		u.advanceHead()
	}
	var zero T
	v = u.phead.slots[u.pr]
	u.phead.slots[u.pr] = zero
	u.pr++
	u.cpopped++
	u.popped.Store(u.cpopped)
	return v, true
}

// PopBatch pops up to len(dst) items into dst, publishing one consumed
// count for the whole batch. Consumer goroutine only.
func (u *Unbounded[T]) PopBatch(dst []T) int {
	avail := u.available()
	if avail == 0 {
		return 0
	}
	n := len(dst)
	if avail < n {
		n = avail
	}
	u.popInto(dst[:n])
	return n
}

// DrainTo pops every published item into dst (appending) and returns
// the extended slice, publishing one consumed count for the whole
// drain. Consumer goroutine only. A short dst regrows to a power of
// two, so reused scratch allocates log2(high-water) times at most.
func (u *Unbounded[T]) DrainTo(dst []T) []T {
	avail := u.available()
	if avail == 0 {
		return dst
	}
	base := len(dst)
	if free := cap(dst) - base; free < avail {
		grown := make([]T, base, 1<<bits.Len(uint(base+avail-1)))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+avail]
	u.popInto(dst[base:])
	return dst
}

// available refreshes the consumer's snapshot of pushed and returns
// the published backlog.
func (u *Unbounded[T]) available() int {
	u.cachedPushed = u.pushed.Load()
	return int(u.cachedPushed - u.cpopped)
}

// popInto fills dst (whose length must not exceed the published
// backlog) segment chunk by segment chunk, zeroing consumed slots so
// the arena does not pin dead values, then publishes the consumed
// count once.
func (u *Unbounded[T]) popInto(dst []T) {
	var zero T
	took := 0
	for took < len(dst) {
		if u.pr == len(u.phead.slots) {
			u.advanceHead()
		}
		chunk := u.phead.slots[u.pr:]
		c := copy(dst[took:], chunk)
		for i := 0; i < c; i++ {
			chunk[i] = zero
		}
		u.pr += c
		took += c
	}
	u.cpopped += uint64(took)
	u.popped.Store(u.cpopped)
}
