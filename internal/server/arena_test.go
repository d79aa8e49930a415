package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// The stream arena's lifecycle under load. In every test the handler
// checks each payload's bytes while producers keep writing, and the
// producers write each batch from one buffer they reuse, as the ingest
// faces do, so a payload the arena failed to copy, or freed too early,
// reads as some other payload's bytes.

// payload renders producer p's item seq into dst: a header naming both,
// then filler derived from them, size bytes in all (at least 16).
func payload(dst []byte, p byte, seq, size int) []byte {
	dst = fmt.Appendf(dst[:0], "%c%09d:", p, seq)
	fill := byte('a' + (seq*7+int(p))%26)
	for len(dst) < size {
		dst = append(dst, fill)
	}
	return dst
}

// parsePayload recovers a payload's producer and sequence number and
// reports whether every byte is what payload wrote.
func parsePayload(b []byte) (p byte, seq int, ok bool) {
	if len(b) < 11 || b[10] != ':' {
		return 0, 0, false
	}
	seq, err := strconv.Atoi(string(b[1:10]))
	if err != nil {
		return 0, 0, false
	}
	var want [64]byte
	return b[0], seq, string(payload(want[:0], b[0], seq, len(b))) == string(b)
}

// checker is a handler that checks every payload it is handed and the
// FIFO order of each producer's items, within and across the batches
// it records. slow holds each call after the
// check and checks again, so bytes freed too early are overwritten
// while the handler still reads them.
type checker struct {
	slow time.Duration

	mu        sync.Mutex
	last      map[byte]int
	delivered atomic.Int64
	bad       atomic.Int64
	firstBad  atomic.Value
}

// check reports whether every payload in batch is intact and each
// producer's items in it are in order (a payload read from a reused
// buffer can be intact but repeat a later item).
func (c *checker) check(batch [][]byte) bool {
	last := map[byte]int{}
	for _, b := range batch {
		p, seq, ok := parsePayload(b)
		if prev, seen := last[p]; !ok || seen && seq <= prev {
			c.bad.Add(1)
			c.firstBad.CompareAndSwap(nil, string(b))
			return false
		}
		last[p] = seq
	}
	return true
}

// handle checks batch; record also credits it as delivered, in order.
func (c *checker) handle(batch [][]byte, record bool) {
	if !c.check(batch) {
		return
	}
	if c.slow > 0 {
		time.Sleep(c.slow)
		if !c.check(batch) {
			return
		}
	}
	if !record {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last == nil {
		c.last = make(map[byte]int)
	}
	for _, b := range batch {
		p, seq, _ := parsePayload(b)
		if prev, ok := c.last[p]; ok && seq <= prev {
			c.bad.Add(1)
			c.firstBad.CompareAndSwap(nil, fmt.Sprintf("producer %c: %d after %d", p, seq, prev))
		}
		c.last[p] = seq
	}
	c.delivered.Add(int64(len(batch)))
}

func (c *checker) handlerFor(string) func([][]byte) {
	return func(batch [][]byte) { c.handle(batch, true) }
}

func (c *checker) verify(t *testing.T) {
	t.Helper()
	if n := c.bad.Load(); n > 0 {
		t.Fatalf("handler saw %d bad payloads or order breaks; first: %q", n, c.firstBad.Load())
	}
}

func (c *checker) waitDelivered(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.delivered.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d items, want %d", c.delivered.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// feed writes batches of producer p's items, seq from..to-1, into key
// through ingestLocal, from one reused buffer, pausing for pace (if
// any) after each. It returns how many the server accepted.
func feed(t *testing.T, s *Server, key string, p byte, from, to, batch, size int, pace ...time.Duration) int {
	t.Helper()
	buf := make([]byte, batch*size)
	items := make([][]byte, 0, batch)
	accepted := 0
	for seq := from; seq < to; {
		items = items[:0]
		for i := 0; i < batch && seq < to; i, seq = i+1, seq+1 {
			at := buf[i*size : i*size : (i+1)*size]
			items = append(items, payload(at, p, seq, size))
		}
		res, err := s.ingestLocal(protoTCP, "", key, items)
		if err != nil {
			t.Errorf("producer %c: %v", p, err)
			return accepted
		}
		accepted += res.Accepted
		if len(pace) > 0 {
			time.Sleep(pace[0])
		}
	}
	return accepted
}

// arenaChunks reports how many chunks key's stream arena holds, in use
// and spare (those the GC has not collected), and whether every chunk in
// use is a regular one.
func arenaChunks(s *Server, key string) (used, spare int, regular bool) {
	s.mu.RLock()
	st := s.streams[key]
	s.mu.RUnlock()
	st.arena.mu.Lock()
	defer st.arena.mu.Unlock()
	for _, w := range st.arena.spare {
		if w.Value() != nil {
			spare++
		}
	}
	regular = true
	for _, c := range st.arena.used {
		regular = regular && len(c) == arenaChunk
	}
	return len(st.arena.used), spare, regular
}

// TestStreamArenaSlowHandlerOverflow: a slowed handler lets three
// producers fill a small pair, so their batches overflow and wait for
// drains, and the arena wraps its chunks many times over.
func TestStreamArenaSlowHandlerOverflow(t *testing.T) {
	c := &checker{slow: 500 * time.Microsecond}
	s, rt := newTestServer(t, Config{HandlerFor: c.handlerFor}, repro.WithBuffer(256))
	const producers, perProducer, batch, size = 3, 3000, 40, 64
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			accepted.Add(int64(feed(t, s, "slow", p, 0, perProducer, batch, size)))
		}(byte('A' + p))
	}
	wg.Wait()
	c.waitDelivered(t, accepted.Load())
	c.verify(t)
	if accepted.Load() != producers*perProducer {
		t.Fatalf("accepted %d of %d", accepted.Load(), producers*perProducer)
	}
	if rt.Stats().Overflows == 0 {
		t.Fatal("no batch overflowed: the test did not exercise the wait")
	}
	used, spare, _ := arenaChunks(s, "slow")
	if fed := producers * perProducer * size; (used+spare)*arenaChunk*4 > fed {
		t.Fatalf("arena holds %d+%d chunks for %d bytes fed: chunks are not recycled", used, spare, fed)
	}
}

// TestStreamArenaRedelivery: every batch fails its first offer and is
// redelivered; the retained batch's bytes stay intact, while producers
// keep writing, until the redelivery succeeds.
func TestStreamArenaRedelivery(t *testing.T) {
	c := &checker{slow: 200 * time.Microsecond}
	var mu sync.Mutex
	failed := make(map[string]bool) // first payload of each batch that failed once
	s, rt := newTestServer(t, Config{
		HandlerFuncFor: func(string) func(context.Context, [][]byte) error {
			return func(_ context.Context, batch [][]byte) error {
				mu.Lock()
				first := string(batch[0])
				again := failed[first]
				failed[first] = true
				mu.Unlock()
				c.handle(batch, again)
				if !again {
					return errors.New("first offer fails")
				}
				return nil
			}
		},
		PairOptions: func(string) []repro.PairOption {
			return []repro.PairOption{repro.Breaker(0), repro.Redelivery(3)}
		},
	}, repro.WithBuffer(256))
	const producers, perProducer, batch, size = 2, 2000, 25, 48
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			accepted.Add(int64(feed(t, s, "redo", p, 0, perProducer, batch, size)))
		}(byte('A' + p))
	}
	wg.Wait()
	c.waitDelivered(t, accepted.Load())
	c.verify(t)
	if st := rt.Stats(); st.Redeliveries == 0 || st.ItemsDropped != 0 {
		t.Fatalf("redeliveries %d, dropped %d: want every batch redelivered once", st.Redeliveries, st.ItemsDropped)
	}
}

// TestStreamArenaAlwaysFailing: a handler that always fails, with one
// redelivery, drops every batch; the dropped batches' space comes back,
// so the arena stays a few chunks deep however much is fed.
func TestStreamArenaAlwaysFailing(t *testing.T) {
	c := &checker{slow: 200 * time.Microsecond}
	s, rt := newTestServer(t, Config{
		HandlerFuncFor: func(string) func(context.Context, [][]byte) error {
			return func(_ context.Context, batch [][]byte) error {
				c.handle(batch, false)
				c.delivered.Add(int64(len(batch)))
				return errors.New("always fails")
			}
		},
		PairOptions: func(string) []repro.PairOption {
			return []repro.PairOption{repro.Breaker(0), repro.Redelivery(1)}
		},
	}, repro.WithBuffer(256))
	const perProducer, batch, size = 6000, 30, 64
	// Paced, so the producer writes across many drains.
	fed := feed(t, s, "fail", 'A', 0, perProducer, batch, size, 100*time.Microsecond)
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().ItemsDropped < uint64(fed) {
		if time.Now().After(deadline) {
			t.Fatalf("dropped %d of %d", rt.Stats().ItemsDropped, fed)
		}
		time.Sleep(time.Millisecond)
	}
	c.verify(t)
	// One more item's offer frees the last dropped batch's space, and the
	// put after it picks that up.
	feed(t, s, "fail", 'A', perProducer, perProducer+1, 1, size)
	for rt.Stats().ItemsDropped < uint64(fed)+1 {
		if time.Now().After(deadline) {
			t.Fatal("the last item was never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	feed(t, s, "fail", 'A', perProducer+1, perProducer+2, 1, size)
	used, spare, _ := arenaChunks(s, "fail")
	if (used+spare)*arenaChunk*4 > fed*size {
		t.Fatalf("arena holds %d+%d chunks for %d bytes fed: dropped batches keep their space", used, spare, fed*size)
	}
	if used > 2 {
		t.Fatalf("%d chunks still in use after every batch was dropped", used)
	}
}

// TestStreamArenaDetach: a detached stream's hand-off is views of its
// arena, which nothing writes again: they read as sent while the key's
// next stream is fed. The first batch is retained for redelivery when
// the stream detaches, and fed around.
func TestStreamArenaDetach(t *testing.T) {
	entered := make(chan struct{}, 1)
	var calls atomic.Int64
	var detached atomic.Bool
	c := &checker{}
	s, _ := newTestServer(t, Config{
		HandlerFuncFor: func(key string) func(context.Context, [][]byte) error {
			return func(_ context.Context, batch [][]byte) error {
				if key != "mig" || detached.Load() {
					c.handle(batch, true)
					return nil
				}
				calls.Add(1)
				select {
				case entered <- struct{}{}:
				default:
				}
				return errors.New("hold the batch")
			}
		},
		PairOptions: func(string) []repro.PairOption {
			return []repro.PairOption{repro.Breaker(0), repro.Redelivery(1000)}
		},
	}, repro.WithBuffer(4096))
	const batch, size = 50, 80
	feed(t, s, "mig", 'A', 0, batch, batch, size)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	fed := batch + feed(t, s, "mig", 'A', batch, 20*batch, batch, size)
	detached.Store(true)
	shipped, _, ok := s.DetachStream("mig")
	if !ok || len(shipped) != fed {
		t.Fatalf("DetachStream ok=%v with %d items, want %d", ok, len(shipped), fed)
	}
	if calls.Load() == 0 {
		t.Fatal("the retained batch was never offered")
	}
	// The key's next stream, and a second one beside it, reuse nothing
	// of the detached arena.
	var wg sync.WaitGroup
	for i, key := range []string{"mig", "next"} {
		wg.Add(1)
		go func(key string, p byte) {
			defer wg.Done()
			feed(t, s, key, p, 0, 4000, batch, size)
		}(key, byte('B'+i))
	}
	wg.Wait()
	for i, it := range shipped {
		if p, seq, ok := parsePayload(it); !ok || p != 'A' || seq != i {
			t.Fatalf("handed-off item %d = %q after the key's next stream was fed", i, it)
		}
	}
	c.verify(t)
}

// TestStreamArenaOverChunkPayload: payloads larger than a chunk get a
// chunk of their own among ordinary ones, read intact, and their chunks
// are let go once released (a spare is a regular chunk by its type).
func TestStreamArenaOverChunkPayload(t *testing.T) {
	c := &checker{slow: 300 * time.Microsecond}
	s, _ := newTestServer(t, Config{HandlerFor: c.handlerFor})
	sizes := []int{64, arenaChunk + 1, 100, 3 * arenaChunk, arenaChunk, 17}
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			buf := make([]byte, 4*arenaChunk)
			for seq := 0; seq < 600; seq++ {
				size := sizes[seq%len(sizes)]
				item := payload(buf[:0:size], p, seq, size)
				res, err := s.ingestLocal(protoTCP, "", "big", [][]byte{item})
				if err != nil {
					t.Errorf("producer %c: %v", p, err)
					return
				}
				accepted.Add(int64(res.Accepted))
			}
		}(byte('A' + p))
	}
	wg.Wait()
	c.waitDelivered(t, accepted.Load())
	c.verify(t)
	// A final small item frees everything before it.
	s.ingestLocal(protoTCP, "", "big", [][]byte{payload(nil, 'C', 0, 16)})
	c.waitDelivered(t, accepted.Load()+1)
	s.ingestLocal(protoTCP, "", "big", [][]byte{payload(nil, 'C', 1, 16)})
	if _, _, regular := arenaChunks(s, "big"); !regular {
		t.Fatal("an over-chunk payload's chunk is still in use after its release")
	}
}

// TestStreamArenaIdleLetsGo: once the consumer has delivered everything
// an idle stream holds, it frees the chunks itself (no producer comes to
// do it), and the spares are garbage to the GC: a collection leaves the
// stream no chunk (where spares are weak, Go 1.24 on).
func TestStreamArenaIdleLetsGo(t *testing.T) {
	c := &checker{}
	s, _ := newTestServer(t, Config{HandlerFor: c.handlerFor})
	const items, size = 2000, 64
	accepted := feed(t, s, "idle", 'A', 0, items, 100, size)
	c.waitDelivered(t, int64(accepted))
	c.verify(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		used, _, _ := arenaChunks(s, "idle")
		if used == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle stream holds %d chunks in use after delivering all %d items", used, accepted)
		}
		time.Sleep(time.Millisecond)
	}
	if !weakSpares {
		return // the stream keeps its spares until it closes
	}
	runtime.GC()
	if used, spare, _ := arenaChunks(s, "idle"); used+spare != 0 {
		t.Fatalf("after a GC the idle stream still holds %d chunks in use and %d spare", used, spare)
	}
}

// TestStreamArenaTwoHTTPConnections: two HTTP connections feed one key
// concurrently; their request bodies share the server's pooled body
// buffers, and every payload reaches the handler intact and in each
// connection's order.
func TestStreamArenaTwoHTTPConnections(t *testing.T) {
	c := &checker{slow: 300 * time.Microsecond}
	s, _ := newTestServer(t, Config{HandlerFor: c.handlerFor}, repro.WithBuffer(512))
	base := "http://" + s.Addr()
	const requests, perRequest, size = 150, 40, 64
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}} // a connection of its own
			defer client.CloseIdleConnections()
			var body strings.Builder
			var item []byte
			for r := 0; r < requests; r++ {
				body.Reset()
				for i := 0; i < perRequest; i++ {
					item = payload(item, p, r*perRequest+i, size)
					body.Write(item)
					body.WriteByte('\n')
				}
				resp, err := client.Post(base+"/ingest/shared", "text/plain", strings.NewReader(body.String()))
				if err != nil {
					t.Errorf("producer %c: %v", p, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("producer %c request %d: status %d", p, r, resp.StatusCode)
					return
				}
			}
		}(byte('A' + p))
	}
	wg.Wait()
	c.waitDelivered(t, 2*requests*perRequest)
	c.verify(t)
}

// TestStreamArenaHandlerTimeout: under a HandlerTimeout, a handler that
// returns nil can still be counted overrun and its batch offered again,
// so a batch's bytes outlive a clean return until a different batch is
// handed over. Every other call overruns on purpose; any call may
// overrun under a slow host, so delivery is counted per distinct item.
func TestStreamArenaHandlerTimeout(t *testing.T) {
	c := &checker{}
	var calls atomic.Int64
	var mu sync.Mutex
	seen := make(map[string]bool)
	s, rt := newTestServer(t, Config{
		HandlerFor: func(string) func([][]byte) {
			return func(batch [][]byte) {
				if !c.check(batch) {
					return
				}
				if calls.Add(1)%2 == 1 {
					time.Sleep(3 * time.Millisecond) // past the deadline
					c.check(batch)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				for _, b := range batch {
					if !seen[string(b)] {
						seen[string(b)] = true
						c.delivered.Add(1)
					}
				}
			}
		},
		PairOptions: func(string) []repro.PairOption {
			return []repro.PairOption{repro.HandlerTimeout(time.Millisecond), repro.Breaker(0), repro.Redelivery(1000)}
		},
	}, repro.WithBuffer(256))
	const producers, perProducer, batch, size = 2, 1500, 20, 64
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			accepted.Add(int64(feed(t, s, "timed", p, 0, perProducer, batch, size, 50*time.Microsecond)))
		}(byte('A' + p))
	}
	wg.Wait()
	c.waitDelivered(t, accepted.Load())
	c.verify(t)
	if st := rt.Stats(); st.HandlerTimeouts == 0 || st.Redeliveries == 0 {
		t.Fatalf("timeouts %d, redeliveries %d: the test did not exercise an overrun", st.HandlerTimeouts, st.Redeliveries)
	}
}
