package server

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro"
)

// arenaChunk is the size of a stream arena's chunks: 256 of the
// benchmark's 64 B payloads. A payload larger than a chunk gets a chunk
// of exactly its size, which is dropped, not kept, once released.
const arenaChunk = 16 << 10

// noBytes stands in for an empty payload: it points into no chunk.
var noBytes = []byte{}

// arena owns the payload bytes a stream's pair holds (§V-C's buffer of
// pooled segments, given back in order). Producers copy each batch to
// the end of the newest chunk and offer it to the pair in one step,
// under mu, so the arena's byte order is the pair's item order. The
// pair delivers FIFO, so once the consumer is done with a payload it is
// done with every byte before it: it publishes that payload's last byte
// in rel, and frees everything through it if mu is free, else the
// producer holding mu does once it lets go. The consumer never waits on
// mu, so a drain never waits behind a producer.
//
// A chunk whose bytes are all released goes to spare and is reused
// before a new one is made. Spares are held by weak pointers
// (arena_weak.go): they are garbage the stream may take back until the
// GC collects it, so the GC's goal counts only the chunks in use, as it
// counted the per-batch slabs they replace, and an idle stream's spares
// go at the next cycle. None is made before the first local admission.
type arena struct {
	mu    sync.Mutex
	used  [][]byte     // chunks holding unreleased bytes, oldest first
	spare []spareChunk // released chunks, newest last
	off   int          // the next payload is written at used[len(used)-1][off:]
	hdrs  [][]byte     // put's batch headers, reused

	// rel is the last byte the consumer is done with, nil once freed
	// through.
	rel atomic.Pointer[byte]

	// The consumer's side, touched only by the handler wrapper, whose
	// invocations the pair serialises: the bounds of the last batch the
	// handler did not finish cleanly. The pair may offer it again, so its
	// bytes stay until a different batch is handed over.
	heldFirst, heldLast *byte
}

// put copies items into the arena and offers the copies to pair as one
// batch. The copies the pair refuses are the arena's newest bytes, so
// their space is returned at once; the caller still holds the originals
// to offer again.
func (a *arena) put(pair *repro.Pair[[]byte], items [][]byte) (int, error) {
	n, err := a.putLocked(pair, items)
	// A release that found mu held while the pair ran the batch is freed
	// here, so an idle stream's last batch does not wait for a next put.
	if a.rel.Load() != nil {
		a.tryReclaim()
	}
	return n, err
}

func (a *arena) putLocked(pair *repro.Pair[[]byte], items [][]byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reclaim()
	hdrs := a.hdrs[:0]
	for _, p := range items {
		hdrs = append(hdrs, a.write(p))
	}
	n, err := pair.PutBatch(hdrs)
	a.unwrite(hdrs[n:])
	clear(hdrs)
	a.hdrs = hdrs
	return n, err
}

// write copies p after the arena's newest byte and returns the copy,
// capacity clipped.
func (a *arena) write(p []byte) []byte {
	n := len(p)
	if n == 0 {
		return noBytes
	}
	if len(a.used) == 0 || a.off+n > len(a.used[len(a.used)-1]) {
		var c []byte
		if n <= arenaChunk {
			c = a.takeSpare()
		}
		if c == nil {
			c = make([]byte, max(n, arenaChunk))
		}
		a.used = append(a.used, c)
		a.off = 0
	}
	dst := a.used[len(a.used)-1][a.off : a.off+n : a.off+n]
	a.off += n
	copy(dst, p)
	return dst
}

// reclaim frees everything through the last byte the consumer released.
func (a *arena) reclaim() {
	last := a.rel.Swap(nil)
	if last == nil {
		return
	}
	at := addr(last)
	for i, c := range a.used {
		off := at - addr(unsafe.SliceData(c))
		if off >= uintptr(len(c)) {
			continue
		}
		if i == len(a.used)-1 && int(off)+1 == a.off {
			a.retire(0) // all of it
			a.off = 0
		} else {
			a.recycle(a.used[:i])
			n := copy(a.used, a.used[i:])
			clear(a.used[n:])
			a.used = a.used[:n]
		}
		return
	}
}

// unwrite returns the space of copies the pair refused: writing resumes
// where the first of them began.
func (a *arena) unwrite(refused [][]byte) {
	for _, p := range refused {
		if len(p) == 0 {
			continue
		}
		at := addr(&p[0])
		for i := len(a.used) - 1; i >= 0; i-- {
			c := a.used[i]
			off := at - addr(unsafe.SliceData(c))
			if off >= uintptr(len(c)) {
				continue
			}
			a.retire(i + 1)
			a.off = int(off)
			return
		}
		return
	}
}

// retire recycles used[from:] and truncates used to its first from
// chunks.
func (a *arena) retire(from int) {
	a.recycle(a.used[from:])
	clear(a.used[from:])
	a.used = a.used[:from]
}

// recycle keeps the regular chunks among cs as spares.
func (a *arena) recycle(cs [][]byte) {
	for _, c := range cs {
		if len(c) == arenaChunk {
			a.spare = append(a.spare, makeSpare((*[arenaChunk]byte)(c)))
		}
	}
}

// takeSpare returns the newest spare the GC has not taken, or nil.
func (a *arena) takeSpare() []byte {
	for k := len(a.spare); k > 0; k-- {
		c := a.spare[k-1].Value()
		a.spare = a.spare[:k-1]
		if c != nil {
			return c[:]
		}
	}
	return nil
}

// begin is called before the handler is handed batch, whose payload
// bytes run from first to last. The pair offers a batch the handler did
// not finish again before anything newer, so if batch is a different
// one, the held batch was dropped: its bytes are freed.
func (a *arena) begin(first *byte) {
	if a.heldLast != nil && first != a.heldFirst {
		a.release(a.heldLast)
		a.heldFirst, a.heldLast = nil, nil
	}
}

// end is called once the handler has returned. A batch it finished
// cleanly frees its bytes, and by FIFO every byte before them; any other
// is held for redelivery.
func (a *arena) end(first, last *byte, clean bool) {
	switch {
	case last == nil:
	case clean:
		a.release(last)
		a.heldFirst, a.heldLast = nil, nil
	default:
		a.heldFirst, a.heldLast = first, last
	}
}

// release publishes last as the last byte the consumer is done with and
// frees through it unless a producer holds mu; that producer frees it
// once it lets mu go.
func (a *arena) release(last *byte) {
	a.rel.Store(last)
	a.tryReclaim()
}

// tryReclaim reclaims unless mu is held; whoever holds it tries again
// after letting it go.
func (a *arena) tryReclaim() {
	if a.mu.TryLock() {
		a.reclaim()
		a.mu.Unlock()
	}
}

// payloadBounds returns the first byte of batch's oldest non-empty
// payload and the last byte of its newest: where its arena bytes begin
// and end. Both are nil when every payload is empty.
func payloadBounds(batch [][]byte) (first, last *byte) {
	for _, p := range batch {
		if len(p) > 0 {
			first = &p[0]
			break
		}
	}
	for i := len(batch) - 1; i >= 0; i-- {
		if p := batch[i]; len(p) > 0 {
			last = &p[len(p)-1]
			break
		}
	}
	return first, last
}

// addr is p's address, for locating a byte within a chunk; Go's heap
// does not move, and the caller's pointer keeps the chunk alive.
func addr(p *byte) uintptr { return uintptr(unsafe.Pointer(p)) }
