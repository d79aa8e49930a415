package server

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
)

// Both ingest faces, fuzzed against a bytes.Split reference: the items
// each face cuts from its input, their order per stream key, the lines
// it counts malformed, and the payloads the handler is handed — read
// only after the buffer the face parsed has been scribbled over, so a
// payload a stream failed to copy reads as scribble.

// maxFuzzInput bounds an input's length, and so the stream keys one
// input can open (every valid line is at least three bytes).
const maxFuzzInput = 1 << 10

// fuzzSink is a server whose handlers keep a copy of every payload by
// stream. Its latency bound is far longer than an input takes to
// ingest, so the handlers run when delivered drains the streams, after
// the test has scribbled over its buffer. (A handler held on a gate
// instead would stall its manager, and a producer kicking more pairs
// than the manager's kick queue holds would wait on it for good.)
type fuzzSink struct {
	s  *Server
	rt *repro.Runtime

	mu   sync.Mutex
	seen map[string][]string
}

func newFuzzSink(t *testing.T) *fuzzSink {
	t.Helper()
	rt, err := repro.New(
		repro.WithSlotSize(10*time.Millisecond),
		repro.WithMaxLatency(time.Second),
		repro.WithBuffer(4096),
		repro.WithMaxPairs(2*maxFuzzInput/3),
	)
	if err != nil {
		t.Fatal(err)
	}
	fs := &fuzzSink{rt: rt, seen: make(map[string][]string)}
	fs.s, err = New(Config{Runtime: rt, HandlerFor: func(key string) func([][]byte) {
		return func(batch [][]byte) {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			for _, it := range batch {
				fs.seen[key] = append(fs.seen[key], string(it))
			}
		}
	}})
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	return fs
}

// delivered drains every stream through its handler and returns what
// the handlers were handed, by key.
func (fs *fuzzSink) delivered(t *testing.T) map[string][]string {
	t.Helper()
	if err := fs.s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	fs.rt.Close()
	return fs.seen
}

func scribble(b []byte) {
	for i := range b {
		b[i] = '#'
	}
}

// FuzzSplitItems feeds an HTTP body through splitItems and admits the
// items into one stream, as handleIngest does.
func FuzzSplitItems(f *testing.F) {
	for _, seed := range []string{"a\nb\nc", "a\r\n\r\nb\r\r\n", "\n\n", "one", "x\ny\n", "", " \t\n\r"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFuzzInput {
			body = body[:maxFuzzInput]
		}
		var want []string
		for _, line := range bytes.Split(body, newline) {
			if line = bytes.TrimRight(line, "\r"); len(line) > 0 {
				want = append(want, string(line))
			}
		}
		items := splitItems(nil, body)
		var got []string
		for _, it := range items {
			got = append(got, string(it))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("splitItems(%q) = %q, want %q", body, got, want)
		}
		if len(items) == 0 {
			return // handleIngest answers 400 and admits nothing
		}
		fs := newFuzzSink(t)
		res, _, err := fs.s.routedIngest(protoHTTP, "", "fuzz", items)
		if err != nil || res != (IngestResult{Accepted: len(want)}) {
			t.Fatalf("ingest: %+v, %v; want all %d accepted", res, err, len(want))
		}
		scribble(body)
		for i, it := range items {
			if cap(it) != len(it) || bytes.Count(it, []byte{'#'}) != len(it) {
				t.Fatalf("item %d is not a clipped view of the body", i)
			}
		}
		if seen := fs.delivered(t)["fuzz"]; !reflect.DeepEqual(seen, want) {
			t.Fatalf("handler was handed %q, want %q", seen, want)
		}
	})
}

// oddOwner is a cluster router that owns every key whose first byte is
// odd on another, reachable node, which records what it is handed by
// copying it, as encoding a frame would.
type oddOwner struct{ seen map[string][]string }

func (o *oddOwner) Resolve(key string) Route { return Route{Local: key[0]%2 == 0, Owner: "odd"} }
func (o *oddOwner) Forward(_, key string, items [][]byte) (IngestResult, error) {
	for _, it := range items {
		o.seen[key] = append(o.seen[key], string(it))
	}
	return IngestResult{Accepted: len(items)}, nil
}
func (o *oddOwner) Status() ClusterStatus { return ClusterStatus{} }

// fuzzReader hands out data in reads of fuzzed sizes.
type fuzzReader struct {
	data, sizes []byte
	n           int // reads so far
}

func (r *fuzzReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	size := len(r.data)
	if len(r.sizes) > 0 {
		size = 1 + int(r.sizes[r.n%len(r.sizes)])
	}
	r.n++
	k := copy(p, r.data[:min(size, len(r.data))])
	r.data = r.data[k:]
	return k, nil
}

// FuzzTCPIngest drives a raw-TCP connection's lineReader and
// tcpConn.ingest, as serveTCP does, over a reader that returns fuzzed
// read sizes into a small read buffer that grows and compacts. Keys
// with an odd first byte belong to another node, so the lines of one
// read take the forwarded and the local path alike.
func FuzzTCPIngest(f *testing.F) {
	f.Add([]byte("a x\nb y\na z\n"), []byte{0})
	f.Add([]byte("k one\r\nk two\nbad\n\nk/x three\n k four\nk  five\nk last"), []byte{2, 7, 0, 30})
	f.Add([]byte("s1 p\ns2 q\ns1 r\r\r\n"), []byte{})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		if len(data) > maxFuzzInput {
			data = data[:maxFuzzInput]
		}
		fs := newFuzzSink(t)
		owner := &oddOwner{seen: make(map[string][]string)}
		fs.s.SetRouter(owner)
		want := make(map[string][]string)
		var malformed uint64
		lines := bytes.Split(data, newline)
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1] // data ends with a newline, or is empty
		}
		for _, line := range lines {
			line = bytes.TrimSuffix(line, []byte{'\r'})
			key, p, ok := bytes.Cut(line, []byte{' '})
			if !ok || !fs.s.validKey(string(key)) {
				malformed++
				continue
			}
			want[string(key)] = append(want[string(key)], string(p))
		}

		lr := &lineReader{r: &fuzzReader{data: bytes.Clone(data), sizes: sizes}, buf: make([]byte, 16), max: int(fs.s.cfg.MaxBodyBytes)}
		c := &tcpConn{s: fs.s, keys: make(map[string]*tcpKey)}
		for {
			chunk, err := lr.next(false)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("lineReader: %v", err)
			}
			c.ingest(chunk)
		}
		scribble(lr.buf)
		if got := fs.s.tcpMalformed.Load(); got != malformed {
			t.Errorf("malformed %d, want %d", got, malformed)
		}
		seen := fs.delivered(t)
		var n uint64
		for key, items := range want {
			if fs.s.router.Resolve(key).Local {
				n += uint64(len(items))
			}
		}
		if in := fs.s.ingestedTCP.Load(); in != n {
			t.Errorf("ingested %d here, want %d", in, n)
		}
		for key, items := range owner.seen {
			if _, dup := seen[key]; dup {
				t.Fatalf("stream %s both forwarded and kept", key)
			}
			seen[key] = items
		}
		if len(want) == 0 {
			want = map[string][]string{}
		}
		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("handlers were handed %q, want %q", seen, want)
		}
	})
}
