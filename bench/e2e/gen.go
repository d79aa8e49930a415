package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/simtime"
)

// gen is the load generator: one worker per connection (or, for the
// library workload, per goroutine), each owning a disjoint set of
// streams so that per-stream sequence numbers leave it in order and the
// handler can check FIFO. Requests are serialised once; sending one
// patches 32 hex digits per item in place.
type gen struct {
	w       workload
	workers []*worker

	clock   *spanClock // lags and ack times are kept for work stamped in the measured span
	traced  bool
	stopped atomic.Bool
	wg      sync.WaitGroup

	sent        atomic.Uint64 // items offered
	accepted    atomic.Uint64 // items the stack acknowledged (closed loop, lib)
	shed        atomic.Uint64
	quarantined atomic.Uint64
	failedSends atomic.Uint64 // items lost to transport errors or unexpected statuses
	requests    atomic.Uint64
}

type worker struct {
	g       *gen
	streams []*genStream
	next    int // round-robin cursor into streams

	conn net.Conn
	br   *bufio.Reader
	hdr  []byte // scratch for response bodies

	// Open loop.
	rate  float64 // items/s this worker offers
	start time.Time
	due   int64  // items due so far
	wbuf  []byte // tcp write buffer
	slab  []byte // lib: recycled item storage
	slabN int
	tid   atomic.Int64  // lib: the OS thread the busy-waiting loop is locked to
	spin0 time.Duration // lib: that thread's CPU when the loop took it over; published by tid

	ack      latHist // closed loop: socket write → response read
	ackNs    int64   // sum of the ack spans recorded in ack
	ackItems int64   // items those requests carried
	lag      winHist // open loop: due → actually sent
	spans    []genSpan
}

// genStream is one stream as its generator sees it.
type genStream struct {
	idx    int // position in stack.streams; the stream's id in trace spans
	key    string
	req    []byte // serialised request (http) or line (tcp)
	body   int    // offset of the first item inside req
	seq    uint64 // last sequence number issued
	openMs float64

	put      func(item []byte) error // lib: the pair's PutWait, or a null sink
	arrivals []simtime.Time          // lib: the stream's trace
	cursor   int
}

// genSpan is one traced batch on the generator side: gen.batch is
// [genStart, writeStart), server.ack is [writeStart, ackEnd) — for the
// open loops, which get no ack, ackEnd is when the send call returned.
type genSpan struct {
	stream                       int32
	n                            int32
	firstSeq                     uint64
	genStart, writeStart, ackEnd int64
}

const maxSpansPerWorker = 1 << 18

func newGen(w workload, clock *spanClock, traced bool) *gen {
	return &gen{w: w, clock: clock, traced: traced}
}

func (g *gen) addWorker(streams []*genStream) *worker {
	wk := &worker{g: g, streams: streams, lag: g.clock.newWinHist()}
	g.workers = append(g.workers, wk)
	return wk
}

// run starts every worker; stop ends them and waits.
func (g *gen) run() {
	for _, wk := range g.workers {
		wk := wk
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			switch g.w.kind {
			case httpClosed:
				wk.httpLoop()
			case tcpOpen:
				wk.tcpLoop()
			case libOpen:
				wk.libLoop()
			}
		}()
	}
}

func (g *gen) stop() {
	g.stopped.Store(true)
	g.wg.Wait()
}

func (g *gen) close() {
	for _, wk := range g.workers {
		if wk.conn != nil {
			wk.conn.Close()
		}
	}
}

func (g *gen) ackHist() *latHist {
	h := &latHist{}
	for _, wk := range g.workers {
		h.merge(&wk.ack)
	}
	return h
}

func (g *gen) lagHist() winHist {
	h := g.clock.newWinHist()
	for _, wk := range g.workers {
		h.merge(wk.lag)
	}
	return h
}

func (wk *worker) span(s genSpan) {
	if wk.g.traced && len(wk.spans) < maxSpansPerWorker {
		wk.spans = append(wk.spans, s)
	}
}

// ---- items ----

var filler = bytes.Repeat([]byte("x"), itemSize-fillerOff)

// stampItems writes consecutive sequence numbers and one stamp into the
// n items laid out every stride bytes from buf[0].
func stampItems(buf []byte, n, stride int, st *genStream, stamp int64) {
	for i := 0; i < n; i++ {
		st.seq++
		item := buf[i*stride:]
		putHex16(item[seqOff:], st.seq)
		putHex16(item[stampOff:], uint64(stamp))
	}
}

// ---- HTTP, closed loop ----

// httpRequest serialises POST /ingest/<key> carrying n blank items.
func httpRequest(key, apiKey string, n int) (req []byte, body int) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST /ingest/%s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n", key, n*(itemSize+1)-1)
	if apiKey != "" {
		fmt.Fprintf(&b, "X-Api-Key: %s\r\n", apiKey)
	}
	b.WriteString("\r\n")
	body = b.Len()
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.Write(make([]byte, fillerOff))
		b.Write(filler)
	}
	return b.Bytes(), body
}

func (wk *worker) dial(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	wk.conn = c
	wk.br = bufio.NewReaderSize(c, 4096)
	return nil
}

// verdict is the part of an ingest response the generator needs.
type verdict struct {
	status                      int
	accepted, shed, quarantined int
}

// roundTrip writes one serialised request and reads its response.
func (wk *worker) roundTrip(req []byte) (verdict, error) {
	var v verdict
	if _, err := wk.conn.Write(req); err != nil {
		return v, err
	}
	line, err := wk.br.ReadSlice('\n')
	if err != nil {
		return v, err
	}
	if len(line) < 12 {
		return v, fmt.Errorf("short status line %q", line)
	}
	if v.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return v, fmt.Errorf("status line %q", line)
	}
	length := -1
	for {
		if line, err = wk.br.ReadSlice('\n'); err != nil {
			return v, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "Content-Length: "
		if len(line) > len(cl) && string(line[:len(cl)]) == cl {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(cl):])))
			if err != nil {
				return v, fmt.Errorf("content length %q", line)
			}
		}
	}
	if length < 0 {
		return v, errors.New("response without Content-Length")
	}
	if cap(wk.hdr) < length {
		wk.hdr = make([]byte, length)
	}
	body := wk.hdr[:length]
	if _, err = io.ReadFull(wk.br, body); err != nil {
		return v, err
	}
	v.accepted = jsonInt(body, `"accepted":`)
	v.shed = jsonInt(body, `"shed":`)
	v.quarantined = jsonInt(body, `"quarantined":`)
	return v, nil
}

// jsonInt reads the non-negative integer following field in body (0
// when absent) — the ingest verdict is flat, so no decoder is needed.
func jsonInt(body []byte, field string) int {
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range body[i+len(field):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// account folds one request's outcome into the counters. Anything but
// 200 (all admitted) or 429 (some shed) loses the whole request.
func (g *gen) account(n int, v verdict, err error) {
	g.requests.Add(1)
	g.sent.Add(uint64(n))
	if err != nil || (v.status != 200 && v.status != 429) || v.accepted+v.shed+v.quarantined != n {
		g.failedSends.Add(uint64(n))
		return
	}
	g.accepted.Add(uint64(v.accepted))
	g.shed.Add(uint64(v.shed))
	g.quarantined.Add(uint64(v.quarantined))
}

// httpOpen puts one acknowledged item on every stream of the worker,
// timing each first request (server.stream_open_ms).
func (wk *worker) httpOpen(apiKey string) error {
	for _, st := range wk.streams {
		req, body := httpRequest(st.key, apiKey, 1)
		t0 := time.Now()
		stampItems(req[body:], 1, itemSize+1, st, nowNs())
		v, err := wk.roundTrip(req)
		st.openMs = float64(time.Since(t0)) / 1e6
		wk.g.account(1, v, err)
		if err != nil {
			return fmt.Errorf("open stream %s: %w", st.key, err)
		}
		if v.status != 200 || v.accepted != 1 {
			return fmt.Errorf("open stream %s: status %d, accepted %d", st.key, v.status, v.accepted)
		}
	}
	return nil
}

func (wk *worker) httpLoop() {
	g := wk.g
	n := g.w.batch
	for !g.stopped.Load() {
		st := wk.streams[wk.next%len(wk.streams)]
		wk.next++
		t0 := nowNs()
		first := st.seq + 1
		stampItems(st.req[st.body:], n, itemSize+1, st, t0)
		t1 := nowNs()
		v, err := wk.roundTrip(st.req)
		t2 := nowNs()
		g.account(n, v, err)
		if err != nil {
			return // the connection is gone; what was lost is in failedSends
		}
		if g.clock.window(t0) >= 0 {
			wk.ack.record(t2 - t1)
			wk.ackNs += t2 - t1
			wk.ackItems += int64(n)
			wk.span(genSpan{int32(st.idx), int32(n), first, t0, t1, t2})
		}
	}
}

// ---- raw TCP, open loop ----

// tcpLine serialises "<key> <item>\n".
func tcpLine(key string) (line []byte, body int) {
	line = append(line, key...)
	line = append(line, ' ')
	body = len(line)
	line = append(line, make([]byte, fillerOff)...)
	line = append(line, filler...)
	return append(line, '\n'), body
}

// tcpOpen authenticates (when the server has tenants) and sends one
// line per stream; the caller waits for the server to admit them.
func (wk *worker) tcpOpen(apiKey string) error {
	var buf []byte
	if apiKey != "" {
		buf = append(buf, "auth "+apiKey+"\n"...)
	}
	for _, st := range wk.streams {
		off := len(buf)
		buf = append(buf, st.req...)
		stampItems(buf[off+st.body:], 1, 0, st, nowNs())
	}
	wk.g.sent.Add(uint64(len(wk.streams)))
	_, err := wk.conn.Write(buf)
	return err
}

// dueBy is how many items the worker's schedule has released by now.
func (wk *worker) dueBy(now time.Time) int64 {
	return int64(now.Sub(wk.start).Seconds() * wk.rate)
}

// dueAt is the stamp (ns since epoch) at which item i is due.
func (wk *worker) dueAt(i int64) int64 {
	return int64(wk.start.Sub(epoch)) + int64(float64(i)/wk.rate*1e9)
}

// tcpLoop sends, every millisecond, the lines that have come due since
// the last tick. Each line carries the time it was due, so a stalled
// generator shows up as delivery latency and as send lag, not as a
// quietly lower offered rate.
func (wk *worker) tcpLoop() {
	g := wk.g
	const maxPerWrite = 4096
	for !g.stopped.Load() {
		target := wk.dueBy(time.Now())
		for wk.due < target && !g.stopped.Load() {
			n := target - wk.due
			if n > maxPerWrite {
				n = maxPerWrite
			}
			t0 := nowNs()
			wk.wbuf = wk.wbuf[:0]
			var firstStream int
			var firstSeq uint64
			for i := int64(0); i < n; i++ {
				st := wk.streams[wk.next%len(wk.streams)]
				wk.next++
				due := wk.dueAt(wk.due + i)
				off := len(wk.wbuf)
				wk.wbuf = append(wk.wbuf, st.req...)
				stampItems(wk.wbuf[off+st.body:], 1, 0, st, due)
				if i == 0 {
					firstStream, firstSeq = st.idx, st.seq
				}
				if w := g.clock.window(due); w >= 0 {
					wk.lag[w].record(t0 - due)
				}
			}
			t1 := nowNs()
			_, err := wk.conn.Write(wk.wbuf)
			g.requests.Add(1)
			g.sent.Add(uint64(n))
			if err != nil {
				g.failedSends.Add(uint64(n))
				return
			}
			wk.due += n
			wk.span(genSpan{int32(firstStream), int32(n), firstSeq, t0, t1, nowNs()})
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- library, open loop ----

// libLoop replays the worker's pairs' traces merged by arrival time.
// Item storage is a slab recycled far behind the latency bound, so the
// generator itself allocates nothing per item.
//
// It busy-waits for each arrival instead of sleeping. At 12 k items/s a
// sleeping generator costs thousands of timer wake-ups a second, more
// CPU than the runtime under test uses, at a price that drifts with the
// host; a raw nanosleep on a locked thread keeps sysmon retaking its P
// every 20 µs instead. Spinning costs one processor and puts every
// arrival within microseconds of its due time. The loop is locked to its
// OS thread and publishes the thread id, so that the sampler can read
// the spin's CPU from the thread's clock and charge it at wall time
// (see between).
func (wk *worker) libLoop() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tid := syscall.Gettid()
	wk.spin0 = threadCPU(tid)
	wk.tid.Store(int64(tid))
	g := wk.g
	base := int64(wk.start.Sub(epoch))
	for !g.stopped.Load() {
		var st *genStream
		for _, c := range wk.streams {
			if c.cursor < len(c.arrivals) && (st == nil || c.arrivals[c.cursor] < st.arrivals[st.cursor]) {
				st = c
			}
		}
		if st == nil {
			return // trace exhausted
		}
		due := base + int64(st.arrivals[st.cursor])
		st.cursor++
		t0 := nowNs()
		for t0 < due && !g.stopped.Load() {
			t0 = nowNs()
		}
		item := wk.slab[wk.slabN*itemSize : (wk.slabN+1)*itemSize : (wk.slabN+1)*itemSize]
		wk.slabN = (wk.slabN + 1) % (len(wk.slab) / itemSize)
		stampItems(item, 1, 0, st, due)
		t1 := nowNs()
		err := st.put(item)
		g.requests.Add(1)
		g.sent.Add(1)
		if err != nil {
			g.failedSends.Add(1)
		} else {
			g.accepted.Add(1)
		}
		if w := g.clock.window(due); w >= 0 {
			wk.lag[w].record(t0 - due)
			wk.span(genSpan{int32(st.idx), 1, st.seq, t0, t1, nowNs()})
		}
	}
}
