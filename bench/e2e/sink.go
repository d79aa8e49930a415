package main

import (
	"sync"
	"sync/atomic"
)

// sink is the consumer side of one node: the handlers it hands to the
// stack count deliveries, check per-stream FIFO and turn each item's
// stamp into a delivery latency.
type sink struct {
	traced bool
	clock  *spanClock // latencies are kept for items stamped in the measured span

	mu      sync.Mutex
	streams map[string]*streamSink
}

// streamSink is one stream's consumer state. A pair runs its handler
// under its drain mutex, so everything but delivered is single-writer;
// the harness reads the rest only after the stack is shut down.
type streamSink struct {
	parent    *sink
	key       string
	delivered atomic.Uint64

	lastSeq    uint64
	fifoBreaks uint64
	badStamps  uint64
	lat        winHist

	// Traced runs only.
	handlerNs int64
	calls     []handlerCall
}

// handlerCall is one handler invocation of a traced run: the
// repro.handler span, and through firstSeq the end of the repro.wait
// span of every batch it carried.
type handlerCall struct {
	firstSeq, lastSeq uint64
	start, end        int64
}

func newSink(clock *spanClock, traced bool) *sink {
	return &sink{traced: traced, clock: clock, streams: make(map[string]*streamSink)}
}

func (s *sink) stream(key string) *streamSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[key]
	if !ok {
		st = &streamSink{parent: s, key: key, lat: s.clock.newWinHist()}
		s.streams[key] = st
	}
	return st
}

// handlerFor is server.Config.HandlerFor.
func (s *sink) handlerFor(key string) func(batch [][]byte) {
	return s.stream(key).handle
}

func (st *streamSink) handle(batch [][]byte) {
	now := nowNs()
	clock := st.parent.clock
	var first uint64
	for i, item := range batch {
		if len(item) != itemSize {
			st.badStamps++
			continue
		}
		seq, ok1 := parseHex16(item[seqOff:])
		stamp, ok2 := parseHex16(item[stampOff:])
		if !ok1 || !ok2 {
			st.badStamps++
			continue
		}
		if i == 0 {
			first = seq
		}
		if seq <= st.lastSeq {
			st.fifoBreaks++
		}
		st.lastSeq = seq
		if w := clock.window(int64(stamp)); w >= 0 {
			st.lat[w].record(now - int64(stamp))
		}
	}
	st.delivered.Add(uint64(len(batch)))
	if st.parent.traced {
		end := nowNs()
		st.handlerNs += end - now
		st.calls = append(st.calls, handlerCall{first, st.lastSeq, now, end})
	}
}

func (s *sink) delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, st := range s.streams {
		n += st.delivered.Load()
	}
	return n
}

// sinkTotals is a sink's state folded over its streams; read it only
// once the stack is closed.
type sinkTotals struct {
	delivered, fifoBreaks, badStamps uint64
	handlerNs                        int64
	lat                              winHist
}

func (s *sink) totals() *sinkTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &sinkTotals{lat: s.clock.newWinHist()}
	for _, st := range s.streams {
		t.delivered += st.delivered.Load()
		t.fifoBreaks += st.fifoBreaks
		t.badStamps += st.badStamps
		t.handlerNs += st.handlerNs
		t.lat.merge(st.lat)
	}
	return t
}
