package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// fakeBackend is an in-memory Backend: streams are just item slices.
// Like a server, it copies the items it is handed, which are the
// caller's.
type fakeBackend struct {
	mu        sync.Mutex
	streams   map[string][][]byte
	loads     map[string]float64
	forwards  int
	handoffs  int
	contFlags []bool // cont argument of each IngestHandoff call, in order
	// lastForward is the batch the last IngestForwarded was handed, as
	// handed: its payloads are the caller's, to compare by address only.
	lastForward [][]byte
	// failHandoffs makes the next N IngestHandoff calls fail.
	failHandoffs int
	// failForwards makes the next N IngestForwarded calls fail.
	failForwards int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{streams: make(map[string][][]byte), loads: make(map[string]float64)}
}

func (f *fakeBackend) add(key string, rate float64, items ...[]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.streams[key] = append(f.streams[key], items...)
	f.loads[key] = rate
}

func (f *fakeBackend) items(key string) [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]byte, len(f.streams[key]))
	copy(out, f.streams[key])
	return out
}

func (f *fakeBackend) IngestForwarded(tenant, key string, items [][]byte) (server.IngestResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.forwards++
	f.lastForward = items
	if f.failForwards > 0 {
		f.failForwards--
		return server.IngestResult{}, fmt.Errorf("injected forward failure")
	}
	if _, ok := f.streams[key]; !ok {
		f.streams[key] = nil
		f.loads[key] = 0
	}
	// A Backend copies what it keeps: items are views of the wire.
	f.streams[key] = append(f.streams[key], cloneItems(items)...)
	return server.IngestResult{Accepted: len(items)}, nil
}

func (f *fakeBackend) IngestHandoff(tenant, key string, items [][]byte, cont bool) (server.IngestResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handoffs++
	f.contFlags = append(f.contFlags, cont)
	if f.failHandoffs > 0 {
		f.failHandoffs--
		return server.IngestResult{}, fmt.Errorf("injected handoff failure")
	}
	if _, ok := f.streams[key]; !ok {
		f.streams[key] = nil
		f.loads[key] = 0
	}
	f.streams[key] = append(f.streams[key], cloneItems(items)...)
	return server.IngestResult{Accepted: len(items)}, nil
}

func (f *fakeBackend) DetachStream(key string) ([][]byte, string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	items, ok := f.streams[key]
	if !ok {
		return nil, "", false
	}
	delete(f.streams, key)
	delete(f.loads, key)
	return items, "", true
}

func (f *fakeBackend) StreamKeys() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.streams))
	for k := range f.streams {
		keys = append(keys, k)
	}
	return keys
}

func (f *fakeBackend) StreamLoads() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]float64, len(f.loads))
	for k, v := range f.loads {
		out[k] = v
	}
	return out
}

func testNodeConfig(id string, seeds map[string]string) Config {
	return Config{
		NodeID:         id,
		ListenAddr:     "127.0.0.1:0",
		HTTPAddr:       "127.0.0.1:1", // advertised only; never dialed here
		Seeds:          seeds,
		HeartbeatEvery: 15 * time.Millisecond,
	}
}

// twoNodes boots n1 (no seeds) and n2 (seeded with n1); n1 learns n2
// from its inbound heartbeats.
func twoNodes(t *testing.T, f1, f2 *fakeBackend, fleet1, fleet2 *FleetConfig) (*Node, *Node) {
	t.Helper()
	cfg1 := testNodeConfig("n1", nil)
	cfg1.Fleet = fleet1
	n1, err := NewNode(cfg1, f1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close() })
	cfg2 := testNodeConfig("n2", map[string]string{"n1": n1.Addr()})
	cfg2.Fleet = fleet2
	n2, err := NewNode(cfg2, f2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n2.Close() })
	return n1, n2
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// keyOwnedBy finds a stream key the router resolves to the given node.
func keyOwnedBy(r *Router, node string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("stream-%d", i)
		if r.Owner(k) == node {
			return k
		}
	}
}

func TestTwoNodesConverge(t *testing.T) {
	n1, n2 := twoNodes(t, newFakeBackend(), newFakeBackend(), nil, nil)
	waitFor(t, "mutual membership", func() bool {
		return len(n1.router.Members()) == 2 && len(n2.router.Members()) == 2
	})
	if l1, l2 := n1.Leader(), n2.Leader(); l1 != "n1" || l2 != "n1" {
		t.Fatalf("leaders disagree or wrong: n1 says %q, n2 says %q", l1, l2)
	}
	st := n1.Status()
	if !st.Enabled || st.NodeID != "n1" || len(st.Peers) != 1 ||
		st.Peers[0].ID != "n2" || st.Peers[0].State != "alive" {
		t.Fatalf("status %+v", st)
	}
}

// TestJoinWithoutWaitingAPeriod: a node probes its seeds as it starts,
// not one heartbeat period later, so two nodes with a 10 s period see
// each other alive at once.
func TestJoinWithoutWaitingAPeriod(t *testing.T) {
	cfg1 := testNodeConfig("n1", nil)
	cfg1.HeartbeatEvery = 10 * time.Second
	n1, err := NewNode(cfg1, newFakeBackend())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close() })
	cfg2 := testNodeConfig("n2", map[string]string{"n1": n1.Addr()})
	cfg2.HeartbeatEvery = 10 * time.Second
	n2, err := NewNode(cfg2, newFakeBackend())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n2.Close() })
	alive := func(n *Node, peer string) bool {
		for _, p := range n.mem.Snapshot() {
			if p.ID == peer && p.State == StateAlive {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(time.Second)
	for !alive(n1, "n2") || !alive(n2, "n1") {
		if time.Now().After(deadline) {
			t.Fatal("the nodes did not see each other alive within 1 s of boot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestForwardDeliversToOwner(t *testing.T) {
	f1, f2 := newFakeBackend(), newFakeBackend()
	n1, n2 := twoNodes(t, f1, f2, nil, nil)
	waitFor(t, "mutual membership", func() bool {
		return len(n1.router.Members()) == 2 && len(n2.router.Members()) == 2
	})
	key := keyOwnedBy(n1.router, "n2")
	route := n1.Resolve(key)
	if route.Local || route.Owner != "n2" {
		t.Fatalf("route %+v want owner n2", route)
	}
	items := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	res, err := n1.Forward("", key, items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 {
		t.Fatalf("accepted %d want 3", res.Accepted)
	}
	got := f2.items(key)
	if len(got) != 3 || !bytes.Equal(got[0], items[0]) || !bytes.Equal(got[2], items[2]) {
		t.Fatalf("peer backend has %q", got)
	}
}

func TestSweepShipsMisplacedStream(t *testing.T) {
	f1, f2 := newFakeBackend(), newFakeBackend()
	n1, n2 := twoNodes(t, f1, f2, nil, nil)
	waitFor(t, "mutual membership", func() bool {
		return len(n1.router.Members()) == 2 && len(n2.router.Members()) == 2
	})
	// Host a stream on n1 that rendezvous-hashes to n2: the next sweep
	// must quiesce it and ship the backlog in order.
	key := keyOwnedBy(n1.router, "n2")
	var want [][]byte
	for i := 0; i < 10; i++ {
		want = append(want, []byte(fmt.Sprintf("item-%03d", i)))
	}
	f1.add(key, 5, want...)
	waitFor(t, "stream to migrate", func() bool {
		return len(f2.items(key)) == len(want)
	})
	got := f2.items(key)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("migrated item %d = %q want %q (FIFO broken)", i, got[i], want[i])
		}
	}
	if keys := f1.StreamKeys(); len(keys) != 0 {
		t.Fatalf("stream still on n1: %v", keys)
	}
	f2.mu.Lock()
	handoffs := f2.handoffs
	f2.mu.Unlock()
	if handoffs == 0 {
		t.Fatal("migration did not use the hand-off path")
	}
}

// flakyPeer is a raw TCP endpoint that reads one frame per connection
// and closes without answering: the exact ack-loss failure a partition
// or crash produces after the request bytes reached the peer.
type flakyPeer struct {
	ln net.Listener

	mu     sync.Mutex
	frames []Frame // every frame it managed to read
}

func newFlakyPeer(t *testing.T) *flakyPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyPeer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if f, err := readFrame(bufio.NewReader(c), nil); err == nil {
					p.mu.Lock()
					p.frames = append(p.frames, f)
					p.mu.Unlock()
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *flakyPeer) framesOf(typ string) []Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Frame
	for _, f := range p.frames {
		if f.Type == typ {
			out = append(out, f)
		}
	}
	return out
}

// soloNodeWithPeer boots one real node that believes a peer exists at
// the given address, with the probe/sweep loop effectively off so the
// test drives every exchange by hand.
func soloNodeWithPeer(t *testing.T, peerID, peerAddr string) (*Node, *fakeBackend) {
	t.Helper()
	f := newFakeBackend()
	cfg := testNodeConfig("n1", map[string]string{peerID: peerAddr})
	cfg.HeartbeatEvery = time.Hour // no probes, no background sweeps
	cfg.CallTimeout = time.Second
	n, err := NewNode(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	n.mem.Observe(Frame{From: peerID, Addr: peerAddr})
	n.router.SetMembers(n.mem.Routable())
	return n, f
}

// TestForwardAckLossReadmitsOnlyUnwrittenTail is the regression for the
// ack-loss duplication bug: when a forward chunk was written but its
// ack never arrived, the old code re-admitted the whole remaining batch
// locally — including the chunk the owner may well have ingested,
// duplicating every item in it. Only the never-written tail may be
// re-admitted; the written chunk must be counted in doubt instead.
func TestForwardAckLossReadmitsOnlyUnwrittenTail(t *testing.T) {
	old := maxChunkItems
	maxChunkItems = 2
	defer func() { maxChunkItems = old }()

	peer := newFlakyPeer(t)
	n1, f1 := soloNodeWithPeer(t, "n2", peer.ln.Addr().String())
	key := keyOwnedBy(n1.router, "n2")

	items := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	res, err := n1.Forward("", key, items)
	if err != nil {
		t.Fatal(err)
	}
	// All five items have a home: two in doubt at the peer, three local.
	if res.Accepted != 5 {
		t.Fatalf("accepted %d want 5", res.Accepted)
	}
	if got := n1.forwardInDoubt.Load(); got != 2 {
		t.Fatalf("forwardInDoubt %d want 2 (the written chunk)", got)
	}
	got := f1.items(key)
	if len(got) != 3 || !bytes.Equal(got[0], []byte("c")) || !bytes.Equal(got[2], []byte("e")) {
		t.Fatalf("locally re-admitted %q; want only the unwritten tail [c d e]", got)
	}
	// The in-doubt chunk must never have been re-sent.
	fwd := peer.framesOf(FrameForward)
	if len(fwd) != 1 {
		t.Fatalf("peer saw %d forward frames, want exactly 1 (no re-send of in-doubt items)", len(fwd))
	}
	if sent := fwd[0].Items; len(sent) != 2 || !bytes.Equal(sent[0], []byte("a")) || !bytes.Equal(sent[1], []byte("b")) {
		t.Fatalf("peer saw chunk %q, want the first 2 items", sent)
	}
}

// newAckOncePeer is a peer that acknowledges the first forward frame of
// each connection and then hangs up, so the next chunk of the same
// Forward finds the connection gone. It answers nothing else.
func newAckOncePeer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				f, err := readFrame(bufio.NewReader(c), nil)
				if err != nil || f.Type != FrameForward {
					return
				}
				if ack, err := EncodeFrame(Frame{Type: FrameForwardAck, From: "n2", Key: f.Key, Accepted: len(f.Items)}); err == nil {
					c.Write(ack)
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestBorrowedForwardPartialDelivery: Forward keeps nothing of its
// caller's. When the owner takes the first chunk and the rest stays on
// this node, the rest is re-admitted through IngestForwarded as the
// caller's own payloads (the backend copies what it keeps), or, when
// that fails too, stashed as a copy: the caller overwrites its payloads
// once Forward returns, and the stashed items still read as sent.
func TestBorrowedForwardPartialDelivery(t *testing.T) {
	old := maxChunkItems
	maxChunkItems = 2
	defer func() { maxChunkItems = old }()
	for _, stash := range []bool{false, true} {
		t.Run(fmt.Sprintf("stash=%v", stash), func(t *testing.T) {
			peer := newAckOncePeer(t)
			n1, f1 := soloNodeWithPeer(t, "n2", peer.Addr().String())
			key := keyOwnedBy(n1.router, "n2")
			f1.mu.Lock()
			if stash {
				f1.failForwards = 1
			}
			f1.mu.Unlock()
			var want, items [][]byte
			for i := 0; i < 6; i++ {
				want = append(want, []byte(fmt.Sprintf("item-%d", i)))
				items = append(items, bytes.Clone(want[i]))
			}
			res, err := n1.Forward("", key, items)
			if err != nil || res.Accepted != len(items) {
				t.Fatalf("forward: %+v, %v", res, err)
			}
			f1.mu.Lock()
			handed := f1.lastForward
			f1.mu.Unlock()
			// The owner acked items 0-1; items 2-3 were either never
			// written (kept here) or written with the ack lost (in doubt).
			if len(handed) != 4 && len(handed) != 2 {
				t.Fatalf("re-admitted %d items, want the 4 or 2 after the acked chunk", len(handed))
			}
			for i, it := range handed {
				if mine := items[len(items)-len(handed)+i]; &it[0] != &mine[0] {
					t.Fatalf("re-admitted item %d is a copy: the backend copies what it keeps", i)
				}
			}
			for _, it := range items {
				copy(it, "XXXXXX")
			}
			kept := f1.items(key)
			if stash {
				if len(kept) != 0 {
					t.Fatalf("backend took %q though its re-admission failed", kept)
				}
				_, kept = n1.takeStash(key)
			}
			if len(kept) != len(handed) {
				t.Fatalf("kept %d items, want the %d re-admitted", len(kept), len(handed))
			}
			for i, it := range kept {
				if w := want[len(want)-len(kept)+i]; !bytes.Equal(it, w) {
					t.Fatalf("kept item %d = %q after the caller reused its payloads, want %q", i, it, w)
				}
			}
		})
	}
}

// TestMigrateRequeueFailureStashesAndSweepRetries is the regression for
// the silent-loss bug: a failed hand-off whose local re-admission also
// failed (drain race) used to drop the items on the floor. They must be
// stashed, counted, and retried by the sweep until they land.
func TestMigrateRequeueFailureStashesAndSweepRetries(t *testing.T) {
	old := maxChunkItems
	maxChunkItems = 2
	defer func() { maxChunkItems = old }()

	peer := newFlakyPeer(t)
	n1, f1 := soloNodeWithPeer(t, "n2", peer.ln.Addr().String())
	key := keyOwnedBy(n1.router, "n2")

	var want [][]byte
	for i := 0; i < 5; i++ {
		want = append(want, []byte(fmt.Sprintf("item-%d", i)))
	}
	f1.add(key, 1, want...)
	f1.mu.Lock()
	f1.failHandoffs = 1 // the re-admission of the unshipped remainder fails too
	f1.mu.Unlock()

	n1.migrateStream(key, "n2")

	// Chunk 1 (2 items) is in doubt at the peer; the remainder (3 items)
	// failed local re-admission and must be stashed, not lost.
	if got := n1.migrateInDoubt.Load(); got != 2 {
		t.Fatalf("migrateInDoubt %d want 2", got)
	}
	if got := n1.requeueFailed.Load(); got != 3 {
		t.Fatalf("requeueFailed %d want 3", got)
	}
	if got := n1.stashedItems(); got != 3 {
		t.Fatalf("stashed %d items, want 3 (silent loss regression)", got)
	}
	if got := f1.items(key); len(got) != 0 {
		t.Fatalf("backend should be empty after detach, has %q", got)
	}

	// Recovery: the stream routes back here (peer died), and the next
	// sweep must requeue the stash into the local backend as a
	// continuation — never inflating stream-level migration counters.
	n1.router.SetMembers([]string{"n1"})
	n1.sweep()
	if got := n1.stashedItems(); got != 0 {
		t.Fatalf("stash still holds %d items after sweep", got)
	}
	got := f1.items(key)
	if len(got) != 3 || !bytes.Equal(got[0], want[2]) || !bytes.Equal(got[2], want[4]) {
		t.Fatalf("requeued %q, want the stashed remainder %q", got, want[2:])
	}
	f1.mu.Lock()
	flags := append([]bool(nil), f1.contFlags...)
	f1.mu.Unlock()
	if n := len(flags); n == 0 || !flags[n-1] {
		t.Fatalf("stash requeue must be a continuation (cont=true), got flags %v", flags)
	}
}

// TestHeartbeatsNotStarvedByBusyDataConnection is the regression for
// heartbeat starvation: probes used to share the data connection, so a
// long migration (many CallTimeout-bounded chunk exchanges under the
// connection mutex) blocked heartbeats until peers marked the busy node
// suspect. Probes must complete while the data connection is held.
func TestHeartbeatsNotStarvedByBusyDataConnection(t *testing.T) {
	n1, n2 := twoNodes(t, newFakeBackend(), newFakeBackend(), nil, nil)
	waitFor(t, "mutual membership", func() bool {
		return len(n1.router.Members()) == 2 && len(n2.router.Members()) == 2
	})
	pc, err := n1.peerConnFor("n2")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a migration mid-flight: the data connection's mutex is
	// held for the whole chunk sequence.
	pc.mu.Lock()
	defer pc.mu.Unlock()

	done := make(chan struct{})
	go func() {
		n1.probeOnce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("probeOnce blocked behind the held data connection (heartbeat starvation)")
	}
	for _, p := range n1.mem.Snapshot() {
		if p.ID == "n2" && p.State != StateAlive {
			t.Fatalf("peer n2 went %v during a data-path stall", p.State)
		}
	}
}

// TestHandleConnLogsOversizedFrame: an inbound line over MaxFrameBytes
// kills the connection; the reason used to vanish, making a protocol
// violation indistinguishable from a hangup.
func TestHandleConnLogsOversizedFrame(t *testing.T) {
	_, c, logged := loggingNode(t)
	// One "frame" over the limit, no newline in sight.
	junk := bytes.Repeat([]byte("x"), MaxFrameBytes+1)
	if _, err := c.Write(junk); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oversized frame to be logged", func() bool {
		return logged("inbound connection", "too long")
	})
}

// loggingNode boots one node whose log lines the test can inspect, and
// a raw client connection to its wire listener.
func loggingNode(t *testing.T) (backend *fakeBackend, c net.Conn, logged func(...string) bool) {
	t.Helper()
	var logMu sync.Mutex
	var logs []string
	cfg := testNodeConfig("n1", nil)
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	backend = newFakeBackend()
	n, err := NewNode(cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	c, err = net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return backend, c, func(parts ...string) bool {
		logMu.Lock()
		defer logMu.Unlock()
	next:
		for _, l := range logs {
			for _, p := range parts {
				if !strings.Contains(l, p) {
					continue next
				}
			}
			return true
		}
		return false
	}
}

// TestHandleConnClosesOnUnframeableBinary is the binary twin of
// TestHandleConnLogsOversizedFrame: a frame whose header declares more
// than MaxFrameBytes is refused before anything is allocated for it,
// and a frame cut short mid-body is never acted on. Both end the
// connection with the reason logged and ingest nothing.
func TestHandleConnClosesOnUnframeableBinary(t *testing.T) {
	whole, err := EncodeFrame(Frame{Type: FrameForward, From: "n2", Key: "s", Items: [][]byte{[]byte("a"), []byte("b")}})
	if err != nil {
		t.Fatal(err)
	}
	oversize := []byte{frameMagic, 1, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(oversize[2:], MaxFrameBytes-headerLen+1)
	for name, tc := range map[string]struct {
		sent   []byte
		reason string
	}{
		"declared length over MaxFrameBytes": {oversize, "too long"},
		"truncated mid-body":                 {whole[:len(whole)-1], "unexpected EOF"},
	} {
		t.Run(name, func(t *testing.T) {
			backend, c, logged := loggingNode(t)
			if _, err := c.Write(tc.sent); err != nil {
				t.Fatal(err)
			}
			c.(*net.TCPConn).CloseWrite()
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := c.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("read %d bytes, %v; want the connection closed with no answer", n, err)
			}
			waitFor(t, "the reason to be logged", func() bool { return logged("inbound connection", tc.reason) })
			if keys := backend.StreamKeys(); len(keys) != 0 {
				t.Fatalf("backend ingested from an unframeable frame: streams %v", keys)
			}
		})
	}
}

// TestHandleConnFramesOwnTheirSlab: two fwd frames arrive back to back
// on one connection — in one segment, so both sit in the read buffer at
// once — and each frame's items are views of the connection's reused
// decode buffer, which the second frame overwrites. The receiving
// server's stream copies what it admits into its arena: its handler,
// held until both frames are acknowledged, reads every item as sent.
func TestHandleConnFramesOwnTheirSlab(t *testing.T) {
	gate := make(chan struct{})
	var p *pcdNode
	p = bootPCD(t, "n1", nil, nil, func(cfg *server.Config) {
		cfg.HandlerFor = func(key string) func([][]byte) {
			return func(batch [][]byte) {
				<-gate
				p.record(key, batch)
			}
		}
	})
	c, err := net.Dial("tcp", p.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batch := func(fill byte) [][]byte {
		items := make([][]byte, 8)
		for i := range items {
			items[i] = bytes.Repeat([]byte{fill + byte(i)}, 100)
		}
		return items
	}
	first, second := batch('a'), batch('A')
	var sent []byte
	for _, items := range [][][]byte{first, second} {
		b, err := EncodeFrame(Frame{Type: FrameForward, From: "n2", Key: "s", Items: items})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, b...)
	}
	if _, err := c.Write(sent); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 2; i++ {
		ack, err := readFrame(br, nil)
		if err != nil || ack.Type != FrameForwardAck || ack.Accepted != 8 {
			t.Fatalf("ack %d: %+v, %v", i, ack, err)
		}
	}
	close(gate)
	waitFor(t, "both frames delivered", func() bool { return len(p.items("s")) == 16 })
	for i, want := range append(first, second...) {
		if got := p.items("s")[i]; got != string(want) {
			t.Fatalf("delivered item %d = %q, want %q", i, got, want)
		}
	}
}

// TestSweepShipsLargeItemBacklog: a backlog whose encoding passes
// MaxFrameBytes within maxChunkItems items (4096 × 2 KiB) must still
// migrate. Chunks close on a byte budget as well as a count; before
// that the one oversized frame failed to encode, the backlog was
// re-admitted locally and every sweep repeated it forever.
func TestSweepShipsLargeItemBacklog(t *testing.T) {
	f1, f2 := newFakeBackend(), newFakeBackend()
	n1, n2 := twoNodes(t, f1, f2, nil, nil)
	waitFor(t, "mutual membership", func() bool {
		return len(n1.router.Members()) == 2 && len(n2.router.Members()) == 2
	})
	key := keyOwnedBy(n1.router, "n2")
	want := make([][]byte, 4096)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i)}, 2048)
		copy(want[i], fmt.Sprintf("item-%04d", i))
	}
	f1.add(key, 5, want...)
	waitFor(t, "stream to migrate", func() bool {
		return len(f2.items(key)) == len(want)
	})
	for i, got := range f2.items(key) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("migrated item %d = %q… (FIFO broken)", i, got[:9])
		}
	}
	if keys := f1.StreamKeys(); len(keys) != 0 {
		t.Fatalf("stream still on n1: %v", keys)
	}
	// One stream migrated once: exactly the first chunk is not a
	// continuation, however many frames the bytes needed.
	f2.mu.Lock()
	flags := append([]bool(nil), f2.contFlags...)
	f2.mu.Unlock()
	if len(flags) < 2 {
		t.Fatalf("%d hand-off frames for %d MiB of items, want a split", len(flags), len(want)*2048>>20)
	}
	for i, cont := range flags {
		if cont != (i > 0) {
			t.Fatalf("hand-off cont flags %v: only the first chunk may count the stream", flags)
		}
	}
}
