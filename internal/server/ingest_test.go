package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/tenant"
)

// collector is a consumer that keeps what it is handed, by stream. It
// keeps the delivered slices themselves, not copies, so a test that
// reads them back later also proves nothing upstream reused their
// memory.
type collector struct {
	mu    sync.Mutex
	items map[string][][]byte
	n     int
}

func (c *collector) handlerFor(key string) func([][]byte) {
	return func(batch [][]byte) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.items == nil {
			c.items = make(map[string][][]byte)
		}
		c.items[key] = append(c.items[key], batch...)
		c.n += len(batch)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// strings returns everything delivered so far, by stream.
func (c *collector) strings() map[string][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]string, len(c.items))
	for k, items := range c.items {
		for _, it := range items {
			out[k] = append(out[k], string(it))
		}
	}
	return out
}

func (c *collector) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d items, want %d", c.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSplitItems(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       []string
	}{
		{"plain", "a\nb\nc\n", []string{"a", "b", "c"}},
		{"no trailing newline", "a\nb", []string{"a", "b"}},
		{"crlf", "a\r\nb\r\n", []string{"a", "b"}},
		{"blank lines", "\n\na\n\r\n\nb\n\n", []string{"a", "b"}},
		{"only newlines", "\n\r\n\n", nil},
		{"empty", "", nil},
		{"inner spaces and cr kept", "a b\rc\n", []string{"a b\rc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			items := splitItems(nil, body)
			var got []string
			for _, it := range items {
				got = append(got, string(it))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("splitItems(%q) = %q, want %q", tc.body, got, tc.want)
			}
			// Items share the body's memory; growing one must not reach
			// the bytes after it.
			for _, it := range items {
				if cap(it) != len(it) {
					t.Fatalf("item %q has cap %d > len %d: an append would write into its neighbour", it, cap(it), len(it))
				}
			}
			if len(items) > 0 {
				_ = append(items[0], "XXXX"...)
				if string(body) != tc.body {
					t.Fatalf("append to an item rewrote the body: %q", body)
				}
			}
		})
	}
}

// TestHTTPBodyForms covers the two ways a body arrives (declared length:
// one exact slab; chunked: grown) and the size limit on both.
func TestHTTPBodyForms(t *testing.T) {
	var col collector
	s, _ := newTestServer(t, Config{HandlerFor: col.handlerFor, MaxBodyBytes: 64})
	url := "http://" + s.Addr() + "/ingest/forms"
	post := func(body io.Reader) int {
		t.Helper()
		// A bare io.Reader (not *strings.Reader) makes the client send
		// Transfer-Encoding: chunked with no Content-Length.
		resp, err := http.Post(url, "text/plain", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post(strings.NewReader("d1\r\nd2\n\nd3")); got != http.StatusOK {
		t.Fatalf("declared length: status %d", got)
	}
	if got := post(io.MultiReader(strings.NewReader("c1\nc2\r\n"), strings.NewReader("c3"))); got != http.StatusOK {
		t.Fatalf("chunked: status %d", got)
	}
	big := strings.Repeat("x", 65)
	if got := post(strings.NewReader(big)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared length over MaxBodyBytes: status %d, want 413", got)
	}
	if got := post(io.MultiReader(strings.NewReader(big))); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked over MaxBodyBytes: status %d, want 413", got)
	}
	col.waitFor(t, 6)
	want := []string{"d1", "d2", "d3", "c1", "c2", "c3"}
	if got := col.strings()["forms"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// pipeTCP runs serveTCP on one end of a net.Pipe — every Write on the
// returned conn is one or more Reads of exactly those bytes on the
// server side, so tests choose where the reads split. done closes once
// serveTCP has returned.
func pipeTCP(s *Server) (client net.Conn, done chan struct{}) {
	client, srv := net.Pipe()
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		s.serveTCP(srv)
	}()
	return client, done
}

func TestTCPReader(t *testing.T) {
	long := strings.Repeat("L", 100<<10) // past the 64 KiB initial buffer
	for _, tc := range []struct {
		name      string
		writes    []string
		want      map[string][]string
		malformed uint64
		closes    bool // the server hangs up before the client does
	}{
		{
			name:   "line split across reads",
			writes: []string{"k hel", "lo\nk sec", "ond\n"},
			want:   map[string][]string{"k": {"hello", "second"}},
		},
		{
			name:   "longer than the initial buffer",
			writes: []string{"k before\nk " + long + "\nk after\n"},
			want:   map[string][]string{"k": {"before", long, "after"}},
		},
		{
			name:   "interleaved keys keep per-stream order",
			writes: []string{"a 1\nb 1\na 2\nc 1\n", "b 2\na 3\n", "c 2\nb 3\n"},
			want:   map[string][]string{"a": {"1", "2", "3"}, "b": {"1", "2", "3"}, "c": {"1", "2"}},
		},
		{
			name:   "final unterminated line",
			writes: []string{"k one\nk tail"},
			want:   map[string][]string{"k": {"one", "tail"}},
		},
		{
			name:   "crlf and empty payload",
			writes: []string{"k v\r\nk \nk  two spaces\n"},
			want:   map[string][]string{"k": {"v", "", " two spaces"}},
		},
		{
			name:      "malformed lines are skipped",
			writes:    []string{"\nnokey\n leading\nbad/key x\nk ok\n"},
			want:      map[string][]string{"k": {"ok"}},
			malformed: 4,
		},
		{
			name:   "over the limit closes the connection",
			writes: []string{"k kept\nk " + strings.Repeat("x", 2<<20)},
			want:   map[string][]string{"k": {"kept"}},
			closes: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var col collector
			s, _ := newTestServer(t, Config{HandlerFor: col.handlerFor}, repro.WithBuffer(4096))
			client, done := pipeTCP(s)
			var werr error
			for _, w := range tc.writes {
				client.SetWriteDeadline(time.Now().Add(10 * time.Second))
				if _, werr = io.WriteString(client, w); werr != nil {
					break
				}
			}
			if tc.closes != (werr != nil) {
				t.Fatalf("write error %v, want server hang-up = %v", werr, tc.closes)
			}
			client.Close()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("serveTCP did not return")
			}
			total := 0
			for _, items := range tc.want {
				total += len(items)
			}
			col.waitFor(t, total)
			if got := col.strings(); !reflect.DeepEqual(got, tc.want) {
				for k := range tc.want {
					if !reflect.DeepEqual(got[k], tc.want[k]) {
						t.Errorf("stream %s: got %d items %.80q, want %d", k, len(got[k]), got[k], len(tc.want[k]))
					}
				}
				t.Fatalf("delivered streams %d, want %d", len(got), len(tc.want))
			}
			if got := s.tcpMalformed.Load(); got != tc.malformed {
				t.Errorf("tcp_malformed = %d, want %d", got, tc.malformed)
			}
			if got := s.ingestedTCP.Load(); got != uint64(total) {
				t.Errorf("ingested_tcp = %d, want %d", got, total)
			}
			if got := s.shedTCP.Load(); got != 0 {
				t.Errorf("shed_tcp = %d, want 0", got)
			}
		})
	}
}

// TestTCPAuthSharesARead: the auth line and the first items arrive in
// one read; the items must not be lost to the auth step.
func TestTCPAuthSharesARead(t *testing.T) {
	reg := testTenantRegistry(t, tenant.File{
		GlobalBuffer: 100,
		Tenants:      []tenant.Spec{{ID: "acme", Keys: []string{"key-acme"}, Buffer: 100}},
	})
	var col collector
	s, _ := newTestServer(t, Config{Tenants: reg, HandlerFor: col.handlerFor})
	client, done := pipeTCP(s)
	if _, err := io.WriteString(client, "auth key-acme\r\nk one\nk two\n"); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done
	col.waitFor(t, 2)
	if got, want := col.strings()["k"], []string{"one", "two"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}

	// No auth line: one malformed line, connection closed, nothing in.
	client, done = pipeTCP(s)
	go io.WriteString(client, "k three\n")
	<-done
	client.Close()
	if got := s.tcpMalformed.Load(); got != 1 {
		t.Fatalf("tcp_malformed = %d, want 1", got)
	}
	if got := s.ingestedTCP.Load(); got != 2 {
		t.Fatalf("ingested_tcp = %d, want 2", got)
	}
}

// TestTCPRateShedCountedOncePerChunk: a chunk over the tenant's rate
// budget is charged once; the lines past the grant are shed and every
// line is accounted exactly once.
func TestTCPRateShedCountedOncePerChunk(t *testing.T) {
	reg := testTenantRegistry(t, tenant.File{
		GlobalBuffer: 100,
		Tenants:      []tenant.Spec{{ID: "drip", Keys: []string{"key-drip"}, Buffer: 100, Rate: 0.001, Burst: 5}},
	})
	var col collector
	s, _ := newTestServer(t, Config{Tenants: reg, HandlerFor: col.handlerFor})
	client, done := pipeTCP(s)
	var chunk strings.Builder
	chunk.WriteString("auth key-drip\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&chunk, "k%d item-%d\n", i%2, i)
	}
	if _, err := io.WriteString(client, chunk.String()); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done
	col.waitFor(t, 5)
	if in, shed := s.ingestedTCP.Load(), s.shedTCP.Load(); in != 5 || shed != 7 {
		t.Fatalf("ingested_tcp %d shed_tcp %d, want 5 and 7", in, shed)
	}
	// The grant covers the chunk's first five lines, in order.
	want := map[string][]string{"k0": {"item-0", "item-2", "item-4"}, "k1": {"item-1", "item-3"}}
	if got := col.strings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// ---- bounded overflow backpressure ----

// TestOverflowWaitsInsteadOfShedding: a closed loop that outruns a tiny
// buffer and a slow consumer is slowed down, not shed — every request
// answers 200 and everything sent is delivered.
func TestOverflowWaitsInsteadOfShedding(t *testing.T) {
	var col collector
	slow := func(key string) func([][]byte) {
		h := col.handlerFor(key)
		return func(batch [][]byte) {
			time.Sleep(300 * time.Microsecond)
			h(batch)
		}
	}
	s, rt := newTestServer(t, Config{HandlerFor: slow}, repro.WithBuffer(8))
	base := "http://" + s.Addr()
	const requests, perRequest = 40, 24 // each request is three buffers' worth
	sent := 0
	for r := 0; r < requests; r++ {
		lines := make([]string, perRequest)
		for i := range lines {
			lines[i] = fmt.Sprintf("%04d", sent+i)
		}
		status, accepted, shed := postLines(t, base, "slow", lines)
		if status != http.StatusOK || accepted != perRequest || shed != 0 {
			t.Fatalf("request %d: status %d accepted %d shed %d", r, status, accepted, shed)
		}
		sent += perRequest
	}
	col.waitFor(t, sent)
	got := col.strings()["slow"]
	for i, it := range got {
		if want := fmt.Sprintf("%04d", i); it != want {
			t.Fatalf("item %d = %q, want %q (FIFO across waits)", i, it, want)
		}
	}
	if st := rt.Stats(); st.Overflows == 0 {
		t.Fatal("the buffer never overflowed: the test did not exercise the wait")
	}
	m := scrapeMetrics(t, base)
	if m[`pcd_ingest_overflow_waits_total{proto="http"}`] < 1 || m[`pcd_ingest_overflow_wait_seconds_total{proto="http"}`] <= 0 {
		t.Errorf("overflow waits not exported: %v waits, %v s",
			m[`pcd_ingest_overflow_waits_total{proto="http"}`], m[`pcd_ingest_overflow_wait_seconds_total{proto="http"}`])
	}
	if m[`pcd_shed_total{proto="http"}`] != 0 {
		t.Errorf("shed = %v, want 0", m[`pcd_shed_total{proto="http"}`])
	}
	var st statusz
	getJSON(t, base+"/statusz", &st)
	if w := st.OverflowWaits["http"]; w.Waits < 1 || w.Seconds <= 0 {
		t.Errorf("/statusz ingest_overflow_waits[http] = %+v", w)
	}
}

// wedgedServer's consumer blocks in its first invocation until release
// is closed, so a full buffer never drains. The returned server already
// has one item of stream "wedged" in the handler and an empty buffer of
// the given size.
func wedgedServer(t *testing.T, buffer int) (s *Server, rt *repro.Runtime, release chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 1)
	release = make(chan struct{})
	s, rt = newTestServer(t, Config{
		HandlerFor: func(string) func([][]byte) {
			return func([][]byte) {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-release
			}
		},
	}, repro.WithBuffer(buffer), repro.WithMaxLatency(4*time.Millisecond))
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	if status, _, _ := postLines(t, "http://"+s.Addr(), "wedged", []string{"first"}); status != http.StatusOK {
		t.Fatalf("first ingest status %d", status)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	return s, rt, release
}

// TestOverflowWaitIsBounded: with the consumer wedged the tail waits
// the bound out — no less, and not much more — and is then shed.
func TestOverflowWaitIsBounded(t *testing.T) {
	s, _, _ := wedgedServer(t, 8)
	lines := make([]string, 11)
	for i := range lines {
		lines[i] = fmt.Sprintf("fill-%d", i)
	}
	t0 := time.Now()
	status, accepted, shed := postLines(t, "http://"+s.Addr(), "wedged", lines)
	elapsed := time.Since(t0)
	if status != http.StatusTooManyRequests || accepted != 8 || shed != 3 {
		t.Fatalf("status %d accepted %d shed %d, want 429 with 8 accepted, 3 shed", status, accepted, shed)
	}
	if elapsed < overflowWaitBound {
		t.Fatalf("429 after %v, before the %v bound", elapsed, overflowWaitBound)
	}
	// The server's own clock for the upper side: the client's includes
	// connection set-up.
	waited := time.Duration(s.overflowWaitNs[protoHTTP].Load())
	if waited < overflowWaitBound || waited >= 2*overflowWaitBound {
		t.Fatalf("waited %v, want within [%v, %v)", waited, overflowWaitBound, 2*overflowWaitBound)
	}
	if got := s.overflowWaits[protoHTTP].Load(); got != 1 {
		t.Fatalf("overflow waits = %d, want 1", got)
	}
	// Nothing drains, so nothing wakes the producer but the stall bound
	// (a polling wait slept ≈ 21 times here).
	if got := s.overflowWaitWakeups[protoHTTP].Load(); got < 1 || got > 2 {
		t.Fatalf("the wait woke its producer %d times, want 1 or 2", got)
	}
	if got := s.shedHTTP.Load(); got != 3 {
		t.Fatalf("shed_http = %d, want 3", got)
	}
}

// TestConcurrentOverflowWaitsAreBounded: a drain wakes every request
// parked on the pair, once. When the consumer wedges right after that
// drain, the requests whose retry finds the pair full again wait out the
// stall bound and are shed — none keeps being woken with no drain
// behind the wake.
func TestConcurrentOverflowWaitsAreBounded(t *testing.T) {
	entered, gate, release := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	var first sync.Once
	s, rt := newTestServer(t, Config{
		HandlerFor: func(string) func([][]byte) {
			return func([][]byte) {
				wedge := release
				first.Do(func() { entered <- struct{}{}; wedge = gate })
				<-wedge
			}
		},
	}, repro.WithBuffer(2), repro.WithoutResizing(), repro.WithMaxLatency(4*time.Millisecond))
	t.Cleanup(func() { close(release) })
	base := "http://" + s.Addr()
	if status, _, _ := postLines(t, base, "wedged", []string{"first"}); status != http.StatusOK {
		t.Fatalf("first ingest status %d", status)
	}
	<-entered // the first invocation holds the consumer until gate closes
	const n, perRequest = 4, 4
	type answer struct {
		res IngestResult
		err error
		at  time.Time
	}
	answers := make(chan answer, n)
	for i := 0; i < n; i++ {
		go func() {
			// The ingest path an HTTP request takes once its body is split.
			items := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
			res, _, err := s.routedIngest(protoHTTP, "", "wedged", items)
			answers <- answer{res, err, time.Now()}
		}()
	}
	// Every request is in its wait once all items but the quota's two
	// have been turned away.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Overflows < n*perRequest-2 {
		if time.Now().After(deadline) {
			t.Fatal("requests never overflowed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// One drain, then the second invocation wedges for good.
	drained := time.Now()
	close(gate)
	for i := 0; i < n; i++ {
		select {
		case a := <-answers:
			if a.err != nil || a.res.Accepted+a.res.Shed != perRequest {
				t.Fatalf("answer %+v, %v does not classify all %d items", a.res, a.err, perRequest)
			}
			if took := a.at.Sub(drained); took >= 4*overflowWaitBound {
				t.Fatalf("a request answered %v after the last drain, want about one %v stall bound", took, overflowWaitBound)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d requests still waiting on a wedged consumer", n-i, n)
		}
	}
	// Each request wakes for the drain and for its stall bound, plus once
	// at most for a force the manager had already taken when it parked.
	if got := s.overflowWaitWakeups[protoHTTP].Load(); got > 3*n {
		t.Fatalf("%d requests woke %d times on one drain", n, got)
	}
}

// TestOverflowWaitOutlastsBusyManager: the bound counts consumer stall,
// not wall clock. One manager serves eight pairs due in one slot; seven
// handlers take 10 ms each and the eighth pair, full, is drained last.
// A batch overflowing it as the round starts waits ≈ 70 ms — past the
// bound — behind a manager that is busy, never wedged, and is admitted
// whole. (With the bound on wall clock it was answered 429 at 50 ms.)
func TestOverflowWaitOutlastsBusyManager(t *testing.T) {
	roundStarted := make(chan struct{}, 1)
	// Slot == latency bound: everything ingested during slot 0, which is
	// where the set-up below lands, is due at the start of slot 1.
	s, _ := newTestServer(t, Config{
		HandlerFor: func(key string) func([][]byte) {
			if key == "full" {
				return func([][]byte) {}
			}
			return func([][]byte) {
				select {
				case roundStarted <- struct{}{}:
				default:
				}
				time.Sleep(10 * time.Millisecond)
			}
		},
	}, repro.WithManagers(1), repro.WithBuffer(8), repro.WithoutResizing(),
		repro.WithSlotSize(500*time.Millisecond), repro.WithMaxLatency(500*time.Millisecond))
	base := "http://" + s.Addr()
	// Reservation order is drain order within a slot: the slow pairs
	// first, the full one last.
	for i := 0; i < 7; i++ {
		if status, _, _ := postLines(t, base, fmt.Sprintf("slow-%d", i), []string{"x"}); status != http.StatusOK {
			t.Fatalf("slow-%d ingest status %d", i, status)
		}
	}
	fill := []string{"0", "1", "2", "3", "4", "5", "6", "7"}
	if status, accepted, _ := postLines(t, base, "full", fill); status != http.StatusOK || accepted != 8 {
		t.Fatalf("fill: status %d accepted %d", status, accepted)
	}
	select {
	case <-roundStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("the slot's round never started")
	}
	status, accepted, shed := postLines(t, base, "full", []string{"a", "b", "c", "d"})
	if status != http.StatusOK || accepted != 4 || shed != 0 {
		t.Fatalf("status %d accepted %d shed %d, want 200 with all 4 admitted behind the busy manager", status, accepted, shed)
	}
	if got := s.overflowWaits[protoHTTP].Load(); got != 1 {
		t.Fatalf("overflow waits = %d, want 1", got)
	}
	if waited := time.Duration(s.overflowWaitNs[protoHTTP].Load()); waited < overflowWaitBound {
		t.Fatalf("waited %v: the round ended inside the %v bound, so the test proved nothing", waited, overflowWaitBound)
	}
}

// quarantinedServer hosts one stream, key, whose consumer always fails
// and whose breaker is already open.
func quarantinedServer(t *testing.T, key string) *Server {
	t.Helper()
	s, _ := newTestServer(t, Config{
		HandlerFuncFor: func(string) func(context.Context, [][]byte) error {
			return func(context.Context, [][]byte) error { return errors.New("permanently broken") }
		},
		PairOptions: func(string) []repro.PairOption {
			return []repro.PairOption{repro.Breaker(1), repro.Redelivery(0)}
		},
		// A one-second slot keeps the breaker's half-open probe far away
		// so asserts cannot race into the probe window.
	}, repro.WithSlotSize(time.Second), repro.WithMaxLatency(5*time.Second), repro.WithBuffer(2))
	st, err := s.streamFor(key, "")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the quota, then overflow to force the failing drain that
	// opens the breaker.
	for i := 0; i < 3; i++ {
		st.pair.Put([]byte("x"))
	}
	deadline := time.Now().Add(10 * time.Second)
	for !st.pair.Quarantined() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s
}

// TestQuarantinedPairNeverWaits: an open breaker is not an overflow —
// the answer is an immediate 503.
func TestQuarantinedPairNeverWaits(t *testing.T) {
	s := quarantinedServer(t, "q")
	status, _, _ := postLines(t, "http://"+s.Addr(), "q", []string{"a", "b", "c", "d"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", status)
	}
	if got := s.quarantinedHTTP.Load(); got != 4 {
		t.Fatalf("quarantined_http = %d, want 4", got)
	}
	if got := s.overflowWaits[protoHTTP].Load(); got != 0 {
		t.Fatalf("a quarantined pair made %d batches wait", got)
	}
}

// TestShutdownCutsOverflowWaitShort: a batch waiting on a full pair
// gives up as soon as the server starts draining, so Shutdown is not
// held for the bound.
func TestShutdownCutsOverflowWaitShort(t *testing.T) {
	s, rt, release := wedgedServer(t, 8)
	lines := make([]string, 12)
	for i := range lines {
		lines[i] = "x"
	}
	type answer struct{ status, accepted, shed int }
	answered := make(chan answer, 1)
	go func() {
		status, accepted, shed := postLines(t, "http://"+s.Addr(), "wedged", lines)
		answered <- answer{status, accepted, shed}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Overflows == 0 { // the batch is now in its wait
		if time.Now().After(deadline) {
			t.Fatal("batch never overflowed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	select {
	case a := <-answered:
		if a.status != http.StatusTooManyRequests || a.accepted != 8 || a.shed != 4 {
			t.Fatalf("answer %+v, want 429 with 8 accepted, 4 shed", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting batch was not answered after Shutdown began")
	}
	if waited := time.Duration(s.overflowWaitNs[protoHTTP].Load()); waited >= overflowWaitBound {
		t.Fatalf("batch waited %v, the whole bound, with the server draining", waited)
	}
	close(release) // the wedged consumer is the test's, not Shutdown's, to free
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := rt.Stats(); st.ItemsIn != 9 || st.ItemsOut != 9 {
		t.Fatalf("in %d out %d, want 9 and 9", st.ItemsIn, st.ItemsOut)
	}
}

// TestDetachDuringOverflowWait: a stream migrates away while a batch's
// tail waits for room. The admitted head leaves with the hand-off, the
// tail is re-resolved (here: into a fresh local pair), nothing is lost
// or duplicated, and the tenant's buffer charge returns to zero.
func TestDetachDuringOverflowWait(t *testing.T) {
	reg := testTenantRegistry(t, tenant.File{
		GlobalBuffer: 64,
		Tenants:      []tenant.Spec{{ID: "acme", Keys: []string{"key-acme"}, Buffer: 64}},
	})
	var col collector
	entered := make(chan struct{}, 1)
	s, rt := newTestServer(t, Config{
		Tenants: reg,
		HandlerFor: func(key string) func([][]byte) {
			h := col.handlerFor(key)
			return func(batch [][]byte) {
				select {
				case entered <- struct{}{}:
					// First drain: hold the manager long enough for the
					// overflow and the detach to happen behind it, but
					// well inside the wait bound.
					time.Sleep(overflowWaitBound / 3)
				default:
				}
				h(batch)
			}
		},
	}, repro.WithBuffer(8), repro.WithMaxLatency(4*time.Millisecond))

	if res, err := s.ingestLocal(protoHTTP, "acme", "mig", [][]byte{[]byte("first")}); err != nil || res.Accepted != 1 {
		t.Fatalf("first ingest: %+v, %v", res, err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	batch := make([][]byte, 12)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("item-%02d", i))
	}
	type verdict struct {
		res IngestResult
		err error
	}
	done := make(chan verdict, 1)
	go func() {
		res, err := s.ingestLocal(protoHTTP, "acme", "mig", batch)
		done <- verdict{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Overflows == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never overflowed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	shipped, tenantID, ok := s.DetachStream("mig")
	if !ok || tenantID != "acme" {
		t.Fatalf("DetachStream ok=%v tenant=%q", ok, tenantID)
	}
	v := <-done
	if v.err != nil || v.res != (IngestResult{Accepted: len(batch)}) {
		t.Fatalf("verdict %+v, %v; want all %d accepted", v.res, v.err, len(batch))
	}
	if len(shipped) != 8 {
		t.Fatalf("hand-off carried %d items, want the 8 that had been admitted", len(shipped))
	}
	col.waitFor(t, 1+len(batch)-len(shipped))
	var got []string
	for _, it := range shipped {
		got = append(got, string(it))
	}
	got = append(got, col.strings()["mig"][1:]...) // [0] is "first"
	for i, it := range got {
		if want := fmt.Sprintf("item-%02d", i); it != want {
			t.Fatalf("hand-off + re-resolved tail = %q: position %d is %q, want %q", got, i, it, want)
		}
	}
	waitFor := time.Now().Add(5 * time.Second)
	for reg.Snapshot().GlobalUsage != 0 {
		if time.Now().After(waitFor) {
			t.Fatalf("tenant buffer usage stuck at %d after everything was delivered or shipped", reg.Snapshot().GlobalUsage)
		}
		time.Sleep(time.Millisecond)
	}
	if st := rt.Stats(); st.ItemsIn != st.ItemsOut+st.HandedOff || st.HandedOff != 8 {
		t.Fatalf("ledger: in %d, out %d, handed off %d", st.ItemsIn, st.ItemsOut, st.HandedOff)
	}
}

// ---- benchmarks: the server layer's own numbers ----

const (
	benchBatch    = 256
	benchItemSize = 64
)

func benchServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	rt, err := repro.New(
		repro.WithSlotSize(10*time.Millisecond),
		repro.WithMaxLatency(100*time.Millisecond),
		repro.WithBuffer(1<<16),
		repro.WithMinQuota(1<<16),
		repro.WithMaxPairs(4),
	)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Runtime = rt
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		rt.Close()
	})
	return s
}

// reportPerItem adds ns/item and allocs/item (process-wide mallocs over
// the timed loop, so the drain side is in the figure too) to a
// benchmark whose op is one batch of benchBatch items.
func reportPerItem(b *testing.B, run func()) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	run()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	items := float64(b.N) * benchBatch
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/items, "ns/item")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
}

// BenchmarkIngestHTTP is one 256 × 64 B POST through handleIngest: body
// read, split, admission and the response, without the socket and
// net/http's connection handling.
func BenchmarkIngestHTTP(b *testing.B) {
	s := benchServer(b, Config{})
	body := bytes.Repeat(append(bytes.Repeat([]byte("x"), benchItemSize), '\n'), benchBatch)
	post := func() {
		w := httptest.NewRecorder()
		s.handleIngest(w, httptest.NewRequest(http.MethodPost, "/ingest/bench", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	post() // opens the stream's pair outside the timed loop
	reportPerItem(b, func() {
		for i := 0; i < b.N; i++ {
			post()
		}
	})
	if shed := s.shedHTTP.Load(); shed != 0 {
		b.Fatalf("%d items shed", shed)
	}
}

// BenchmarkServeTCP is one write of 256 lines, 64 B payloads, spread
// over four streams, read and ingested by serveTCP from a net.Pipe.
func BenchmarkServeTCP(b *testing.B) {
	s := benchServer(b, Config{})
	var chunk []byte
	for i := 0; i < benchBatch; i++ {
		chunk = append(chunk, fmt.Sprintf("bench-%d ", i%4)...)
		chunk = append(chunk, bytes.Repeat([]byte("x"), benchItemSize)...)
		chunk = append(chunk, '\n')
	}
	client, done := pipeTCP(s)
	send := func() {
		if _, err := client.Write(chunk); err != nil {
			b.Fatal(err)
		}
	}
	send() // opens the four pairs outside the timed loop
	for s.ingestedTCP.Load() < benchBatch {
		time.Sleep(time.Millisecond)
	}
	reportPerItem(b, func() {
		for i := 0; i < b.N; i++ {
			send()
		}
		client.Close()
		<-done
	})
	if in, shed := s.ingestedTCP.Load(), s.shedTCP.Load(); in != uint64(b.N+1)*benchBatch || shed != 0 {
		b.Fatalf("ingested %d shed %d of %d", in, shed, (b.N+1)*benchBatch)
	}
}
