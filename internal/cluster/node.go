package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// maxChunkItems bounds the items in one outbound forward/migrate frame;
// larger batches are split so every frame stays within the decoder's
// limits. A hand-off split across frames still lands in order: the
// chunks travel back-to-back on one mutex-held connection. A variable
// so chunk-boundary failure tests can shrink it.
var maxChunkItems = 4096

const (
	// maxChunkBytes bounds the encoded items of one outbound frame,
	// leaving the rest of MaxFrameBytes to the header fields (under
	// 2 KiB at their bounds).
	maxChunkBytes = MaxFrameBytes - 4096
	// readBufSize sizes a connection's read buffer: a typical forwarded
	// batch arrives in one read.
	readBufSize = 64 << 10
	// maxKeptBuf is the largest encode buffer a peer connection keeps
	// between exchanges; one backlog-sized chunk must not pin 8 MiB.
	maxKeptBuf = 1 << 20
)

// chunkEnd returns where the chunk starting at items[off] ends: at most
// maxChunkItems items and maxChunkBytes encoded bytes, but never empty —
// a single item always fits a frame (the server bounds request bodies
// far below MaxFrameBytes).
func chunkEnd(items [][]byte, off int) int {
	end, size := off, 0
	for end < len(items) && end-off < maxChunkItems {
		size += itemOverhead + len(items[end])
		if size > maxChunkBytes && end > off {
			break
		}
		end++
	}
	return end
}

// Backend is the node-local ingest surface the cluster drives — the
// slice of *server.Server the subsystem needs. Tests substitute fakes.
// The tenant parameter carries the entry node's authenticated tenant id
// across the fleet ("" on an open fleet) so the owning node charges the
// right buffer budget.
type Backend interface {
	// IngestForwarded admits a peer's forwarded items. The items slice
	// and the payloads are the caller's, valid only during the call (a
	// received frame's items are views of the connection's reused read
	// buffer): an implementation copies what it keeps.
	IngestForwarded(tenant, key string, items [][]byte) (server.IngestResult, error)
	// IngestHandoff admits migrated items. cont marks a continuation of
	// a hand-off already under way (a later chunk, or a requeue retry of
	// a previously failed ship) so stream-level migration counters are
	// bumped once per hand-off, not once per frame. As for
	// IngestForwarded, an implementation copies what it keeps.
	IngestHandoff(tenant, key string, items [][]byte, cont bool) (server.IngestResult, error)
	// DetachStream also reports the tenant the stream was bound to, so
	// the hand-off keeps its attribution at the new owner.
	DetachStream(key string) (items [][]byte, tenant string, ok bool)
	StreamKeys() []string
	StreamLoads() map[string]float64
}

// Config parameterizes a cluster Node.
type Config struct {
	// NodeID names this node; must be unique and non-empty.
	NodeID string
	// ListenAddr is the cluster wire listen address ("host:port";
	// ":0" picks a port — read the result from Node.Addr).
	ListenAddr string
	// HTTPAddr is the HTTP ingest address advertised to peers, used by
	// them to answer client redirects toward this node.
	HTTPAddr string
	// AdvertiseAddr is the cluster wire address peers should dial back,
	// when it differs from the bound ListenAddr — NAT'd deployments, or
	// chaos harnesses that interpose a partitionable proxy in front of
	// every node. Empty: advertise the bound listener address.
	AdvertiseAddr string
	// Seeds is the static peer list: node id → cluster wire address.
	Seeds map[string]string
	// HeartbeatEvery is the probe period. Zero defaults to 250ms.
	HeartbeatEvery time.Duration
	// DialTimeout bounds connecting to a peer. Zero defaults to 500ms.
	DialTimeout time.Duration
	// CallTimeout bounds one request/response exchange. Zero defaults
	// to 2s.
	CallTimeout time.Duration
	// Membership tunes the health state machine.
	Membership MembershipConfig
	// Fleet enables the fleet placement controller (leader-elected; safe
	// to set on every node). Nil disables it: placement is pure
	// rendezvous hashing.
	Fleet *FleetConfig
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 500 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// peerConn is one persistent connection to a peer. The mutex serializes
// complete request/response exchanges, which doubles as the migration
// ordering latch: a mig frame sent under the lock precedes every later
// fwd frame for the same stream on this connection.
type peerConn struct {
	mu   sync.Mutex
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte       // encode buffer, reused across exchanges
	dec  frameDecoder // ack decode state, reused across exchanges
}

// Node is one pcd process's cluster presence: it serves the wire
// protocol to peers, probes membership, keeps the router in sync, ships
// misplaced streams to their owners, and (behind leader election by
// lowest routable id) runs the fleet placement controller. It
// implements server.Router.
type Node struct {
	cfg     Config
	backend Backend
	mem     *Membership
	router  *Router
	fleet   *fleet
	ln      net.Listener

	httpAddr atomic.Value // string; advertised HTTP ingest address

	connMu  sync.Mutex
	conns   map[string]*peerConn // data path: forwards + migrations
	hbConns map[string]*peerConn // probe path: heartbeats only

	inMu    sync.Mutex
	inConns map[net.Conn]struct{}

	// stash holds items owed to a stream after a failed hand-off whose
	// local re-admission also failed (drain race) — and forwarded items
	// whose local fallback failed the same way. The sweep retries them
	// until the owner (or the local backend) takes them back, so the
	// conservation ledger never silently loses an item. Each entry
	// remembers the stream's tenant so a retried ship keeps its
	// attribution.
	stashMu sync.Mutex
	stash   map[string]*stashEntry

	// Conservation-ledger failure counters, exported via Status.
	forwardInDoubt  atomic.Uint64 // items written to the owner whose ack was lost
	migrateInDoubt  atomic.Uint64 // hand-off items written whose ack was lost
	requeueFailed   atomic.Uint64 // items whose local re-admission failed (stashed)
	sweepInProgress atomic.Bool

	stop    chan struct{}
	wg      sync.WaitGroup
	stopped atomic.Bool
}

// NewNode starts a cluster node: it binds the wire listener and launches
// the probe/sweep loop. Close releases everything.
func NewNode(cfg Config, backend Backend) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: empty node id")
	}
	if backend == nil {
		return nil, errors.New("cluster: nil backend")
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.ListenAddr, err)
	}
	n := &Node{
		cfg:     cfg,
		backend: backend,
		mem:     NewMembership(cfg.NodeID, cfg.Seeds, cfg.Membership),
		router:  NewRouter(cfg.NodeID),
		ln:      ln,
		conns:   make(map[string]*peerConn),
		hbConns: make(map[string]*peerConn),
		inConns: make(map[net.Conn]struct{}),
		stash:   make(map[string]*stashEntry),
		stop:    make(chan struct{}),
	}
	n.httpAddr.Store(cfg.HTTPAddr)
	if cfg.Fleet != nil {
		f, err := newFleet(*cfg.Fleet, n)
		if err != nil {
			ln.Close()
			return nil, err
		}
		n.fleet = f
	}
	n.wg.Add(2)
	go n.serve()
	go n.probeLoop()
	n.cfg.Logf("cluster: node %s listening on %s", cfg.NodeID, ln.Addr())
	return n, nil
}

// Addr returns the bound cluster wire address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetHTTPAddr updates the HTTP ingest address advertised to peers —
// for servers that learn their ephemeral port only after binding.
func (n *Node) SetHTTPAddr(addr string) { n.httpAddr.Store(addr) }

// Close stops the loops and closes every connection. Idempotent.
func (n *Node) Close() error {
	if n.stopped.Swap(true) {
		return nil
	}
	close(n.stop)
	n.ln.Close()
	n.inMu.Lock()
	for c := range n.inConns {
		c.Close()
	}
	n.inMu.Unlock()
	n.connMu.Lock()
	conns := make([]*peerConn, 0, len(n.conns)+len(n.hbConns))
	for _, pc := range n.conns {
		conns = append(conns, pc)
	}
	for _, pc := range n.hbConns {
		conns = append(conns, pc)
	}
	// Emptied in place: connFor's callers read the map fields without
	// connMu, so the fields themselves are never reassigned.
	clear(n.conns)
	clear(n.hbConns)
	n.connMu.Unlock()
	for _, pc := range conns {
		pc.mu.Lock()
		if pc.c != nil {
			pc.c.Close()
			pc.c = nil
		}
		pc.mu.Unlock()
	}
	n.wg.Wait()
	// Hand any still-stashed items back to the local backend before the
	// server's drain, so a hand-off that failed right before shutdown
	// still reaches a consumer instead of dying with the process.
	n.stashMu.Lock()
	stash := n.stash
	n.stash = make(map[string]*stashEntry)
	n.stashMu.Unlock()
	for key, e := range stash {
		if _, err := n.backend.IngestHandoff(e.tenant, key, e.items, true); err != nil {
			n.requeueFailed.Add(uint64(len(e.items)))
			n.putStash(key, e.tenant, e.items)
			n.cfg.Logf("cluster: node %s could not requeue %d stashed items for %q at close: %v",
				n.cfg.NodeID, len(e.items), key, err)
		}
	}
	return nil
}

// advertiseAddr is the cluster wire address told to peers.
func (n *Node) advertiseAddr() string {
	if n.cfg.AdvertiseAddr != "" {
		return n.cfg.AdvertiseAddr
	}
	return n.Addr()
}

// ---- hand-off stash ----

// stashEntry is one stream's owed items plus the tenant they were
// admitted under.
type stashEntry struct {
	tenant string
	items  [][]byte
}

// putStash appends items owed to a stream for a later sweep retry. It
// takes the items over: every caller passes a slice nothing else uses.
func (n *Node) putStash(key, tenant string, items [][]byte) {
	if len(items) == 0 {
		return
	}
	n.stashMu.Lock()
	if e, ok := n.stash[key]; ok {
		e.items = append(e.items, items...)
	} else {
		n.stash[key] = &stashEntry{tenant: tenant, items: items}
	}
	n.stashMu.Unlock()
}

// cloneItems copies items into one slab of exactly their bytes.
func cloneItems(items [][]byte) [][]byte {
	size := 0
	for _, it := range items {
		size += len(it)
	}
	slab := make([]byte, 0, size)
	out := make([][]byte, len(items))
	for i, it := range items {
		off := len(slab)
		slab = append(slab, it...)
		out[i] = slab[off:len(slab):len(slab)]
	}
	return out
}

// takeStash removes and returns everything stashed for a stream.
func (n *Node) takeStash(key string) (tenant string, items [][]byte) {
	n.stashMu.Lock()
	defer n.stashMu.Unlock()
	e, ok := n.stash[key]
	if !ok {
		return "", nil
	}
	delete(n.stash, key)
	return e.tenant, e.items
}

// stashKeys lists streams with stashed items.
func (n *Node) stashKeys() []string {
	n.stashMu.Lock()
	defer n.stashMu.Unlock()
	keys := make([]string, 0, len(n.stash))
	for k := range n.stash {
		keys = append(keys, k)
	}
	return keys
}

// stashedItems counts items currently stashed across all streams.
func (n *Node) stashedItems() int {
	n.stashMu.Lock()
	defer n.stashMu.Unlock()
	total := 0
	for _, e := range n.stash {
		total += len(e.items)
	}
	return total
}

// Leader returns the fleet leader's node id: the lowest routable member
// id, recomputed from the local membership view (no election protocol —
// a wrong transient answer only delays consolidation, never correctness,
// because placement overrides are versioned by generation).
func (n *Node) Leader() string {
	return n.router.Members()[0]
}

// ---- server.Router ----

// Resolve maps a stream key to its current owner.
func (n *Node) Resolve(key string) server.Route {
	owner := n.router.Owner(key)
	if owner == n.cfg.NodeID {
		return server.Route{Local: true, Owner: owner}
	}
	return server.Route{Owner: owner, OwnerHTTP: n.mem.PeerHTTP(owner)}
}

// Forward ships items for a remotely-owned stream to its owner. Large
// batches are chunked; when a chunk fails the failure mode decides what
// is safe to re-admit locally:
//
//   - Write failure or definitive rejection: the owner never ingested
//     the chunk, so it and the remainder are admitted locally.
//   - Ack loss (the write succeeded but no ack came back): the owner
//     may have ingested the chunk. Re-admitting it could duplicate
//     every item in it, so the chunk is counted in the forward_indoubt
//     ledger term (optimistically reported accepted) and only the
//     never-written remainder is admitted locally.
//
// Either way the call succeeds once anything was delivered or safely
// re-admitted; an error means nothing left this node.
func (n *Node) Forward(tenant, key string, items [][]byte) (server.IngestResult, error) {
	owner := n.router.Owner(key)
	if owner == n.cfg.NodeID {
		return server.IngestResult{}, errors.New("cluster: forward to self")
	}
	var res server.IngestResult
	for off, end := 0, 0; off < len(items); off = end {
		end = chunkEnd(items, off)
		chunk := items[off:end]
		resp, wrote, err := n.call(owner, Frame{
			Type: FrameForward, From: n.cfg.NodeID,
			Key: key, Items: chunk, Tenant: tenant,
		})
		if err == nil && resp.Type != FrameForwardAck {
			// The owner answered and refused: definitively not ingested.
			err = fmt.Errorf("cluster: forward rejected: %s", resp.Error)
			wrote = false
		}
		if err == nil {
			res.Accepted += resp.Accepted
			res.Shed += resp.Shed
			res.Quarantined += resp.Quarantined
			continue
		}
		rest := items[off:]
		if wrote {
			// In doubt: the chunk reached the wire but its verdict was
			// lost. Count it accepted — the ledger carries the slack.
			n.forwardInDoubt.Add(uint64(len(chunk)))
			res.Accepted += len(chunk)
			rest = items[end:]
			n.cfg.Logf("cluster: node %s forward to %s: %d items of %q in doubt (ack lost: %v)",
				n.cfg.NodeID, owner, len(chunk), key, err)
		}
		if off == 0 && !wrote {
			// Nothing delivered and nothing in doubt: let the caller's
			// local-ingest fallback handle the whole batch.
			return server.IngestResult{}, err
		}
		if len(rest) == 0 {
			return res, nil
		}
		// Partial delivery: keep the rest here rather than lose or
		// duplicate it. Forwarded-ingest is the right local path —
		// these items must not bounce back out.
		local, lerr := n.backend.IngestForwarded(tenant, key, rest)
		if lerr != nil {
			// Local re-admission failed too (drain race). Earlier chunks
			// were already delivered, so an error here would make the
			// caller re-ingest them: stash the remainder for the sweep
			// instead and report it accepted-in-flight. The items are
			// the caller's, so the stash keeps a copy.
			n.requeueFailed.Add(uint64(len(rest)))
			n.putStash(key, tenant, cloneItems(rest))
			n.cfg.Logf("cluster: node %s stashed %d undeliverable forwarded items for %q: %v",
				n.cfg.NodeID, len(rest), key, lerr)
			res.Accepted += len(rest)
			return res, nil
		}
		res.Accepted += local.Accepted
		res.Shed += local.Shed
		res.Quarantined += local.Quarantined
		return res, nil
	}
	return res, nil
}

// Status reports membership and routing state. The server layers its
// own forward/migration item counters on top.
func (n *Node) Status() server.ClusterStatus {
	gen, table := n.router.Overrides()
	cs := server.ClusterStatus{
		Enabled:             true,
		NodeID:              n.cfg.NodeID,
		Epoch:               n.router.Epoch(),
		RouteGen:            gen,
		Leader:              n.Leader(),
		Overrides:           len(table),
		ForwardInDoubtItems: n.forwardInDoubt.Load(),
		MigrateInDoubtItems: n.migrateInDoubt.Load(),
		RequeueFailedItems:  n.requeueFailed.Load(),
		StashedItems:        uint64(n.stashedItems()),
	}
	for _, p := range n.mem.Snapshot() {
		ps := server.PeerStatus{
			ID: p.ID, Addr: p.Addr, HTTP: p.HTTP,
			State: p.State.String(), Streams: p.Streams, RateSum: p.RateSum,
		}
		if !p.LastSeen.IsZero() {
			ps.LastSeen = p.LastSeen.UTC().Format(time.RFC3339Nano)
		}
		cs.Peers = append(cs.Peers, ps)
	}
	return cs
}

// ---- inbound wire protocol ----

func (n *Node) serve() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		n.inMu.Lock()
		n.inConns[c] = struct{}{}
		n.inMu.Unlock()
		n.wg.Add(1)
		go n.handleConn(c)
	}
}

func (n *Node) handleConn(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.inMu.Lock()
		delete(n.inConns, c)
		n.inMu.Unlock()
	}()
	br := bufio.NewReaderSize(c, readBufSize)
	var wbuf []byte
	var dec frameDecoder
	for {
		f, err := readFrame(br, &dec)
		var resp Frame
		switch {
		case err == nil:
			resp = n.handleFrame(f)
			clear(dec.items) // reused headers must not pin an oversized frame's body
		case errors.Is(err, errFrame):
			resp = n.errorFrame(err.Error())
		default:
			// Surface why the inbound stream ended: a frame over
			// MaxFrameBytes or one cut short mid-frame reads completely
			// differently from a peer hanging up between frames, and
			// chaos runs need to tell a partition from a protocol
			// violation.
			if err != io.EOF {
				n.cfg.Logf("cluster: node %s: inbound connection from %s failed: %v",
					n.cfg.NodeID, c.RemoteAddr(), err)
			}
			return
		}
		if wbuf, err = appendFrame(wbuf[:0], resp); err != nil {
			wbuf, _ = appendFrame(wbuf[:0], n.errorFrame("encode failed"))
		}
		c.SetWriteDeadline(time.Now().Add(n.cfg.CallTimeout))
		if _, err := c.Write(wbuf); err != nil {
			return
		}
	}
}

func (n *Node) errorFrame(msg string) Frame {
	return Frame{Type: FrameError, From: n.cfg.NodeID, Error: msg}
}

func (n *Node) handleFrame(f Frame) Frame {
	switch f.Type {
	case FrameHeartbeat:
		n.mem.Observe(f)
		n.adoptView(f)
		return n.viewFrame(FrameAck)
	case FrameForward:
		res, err := n.backend.IngestForwarded(f.Tenant, f.Key, f.Items)
		if err != nil {
			return n.errorFrame(err.Error())
		}
		return Frame{
			Type: FrameForwardAck, From: n.cfg.NodeID, Key: f.Key,
			Accepted: res.Accepted, Shed: res.Shed, Quarantined: res.Quarantined,
		}
	case FrameMigrate:
		res, err := n.backend.IngestHandoff(f.Tenant, f.Key, f.Items, f.Seq > 0)
		if err != nil {
			return n.errorFrame(err.Error())
		}
		n.cfg.Logf("cluster: node %s adopted stream %q chunk %d (%d items, %d shed)",
			n.cfg.NodeID, f.Key, f.Seq, res.Accepted, res.Shed)
		return Frame{
			Type: FrameMigrateAck, From: n.cfg.NodeID, Key: f.Key,
			Accepted: res.Accepted, Shed: res.Shed, Quarantined: res.Quarantined,
		}
	default:
		return n.errorFrame("unexpected frame " + f.Type)
	}
}

// viewFrame builds a heartbeat or ack carrying this node's full routing
// view: addresses, epoch, override table + generation, and the load
// report for the streams it hosts.
func (n *Node) viewFrame(typ string) Frame {
	gen, table := n.router.Overrides()
	http, _ := n.httpAddr.Load().(string)
	return Frame{
		Type: typ, From: n.cfg.NodeID,
		Addr: n.advertiseAddr(), HTTP: http,
		Epoch: n.router.Epoch(), Gen: gen, Routes: table,
		Loads: n.backend.StreamLoads(),
	}
}

// adoptView folds a peer's heartbeat/ack into local routing state:
// newer override tables are adopted, and the routable member set is
// recomputed from membership.
func (n *Node) adoptView(f Frame) {
	if f.Gen > 0 && n.router.AdoptOverrides(f.Gen, f.Routes) {
		n.cfg.Logf("cluster: node %s adopted override table gen %d (%d routes) from %s",
			n.cfg.NodeID, f.Gen, len(f.Routes), f.From)
	}
	n.router.SetMembers(n.mem.Routable())
}

// ---- outbound wire protocol ----

// peerConnFor returns the persistent data connection (forwards and
// migrations) to a peer, dialing on first use. Heartbeats travel on a
// separate connection (hbConnFor): a migration holds the data
// connection's mutex for its whole chunk sequence, and probing must
// never queue behind it — a node mid-migration that stops heartbeating
// gets marked suspect by its peers, churning the routing it is busy
// repairing.
func (n *Node) peerConnFor(id string) (*peerConn, error) {
	return n.connFor(n.conns, id)
}

// hbConnFor returns the probe connection to a peer; see peerConnFor.
func (n *Node) hbConnFor(id string) (*peerConn, error) {
	return n.connFor(n.hbConns, id)
}

func (n *Node) connFor(conns map[string]*peerConn, id string) (*peerConn, error) {
	n.connMu.Lock()
	pc, ok := conns[id]
	if !ok {
		pc = &peerConn{}
		conns[id] = pc
	}
	n.connMu.Unlock()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c == nil {
		if err := n.dial(pc, id); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// dial connects pc to the peer. The caller holds pc.mu.
func (n *Node) dial(pc *peerConn, id string) error {
	addr := n.mem.PeerAddr(id)
	if addr == "" {
		return fmt.Errorf("cluster: no address for peer %s", id)
	}
	c, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		return err
	}
	pc.c = c
	pc.br = bufio.NewReaderSize(c, readBufSize)
	return nil
}

// exchange performs one request/response on a held connection. The
// caller holds pc.mu. On any error the connection is torn down so the
// next call redials. wrote reports whether the request frame was fully
// written before the failure: a false means the peer cannot have acted
// on it (safe to retry or re-admit elsewhere), a true with a non-nil
// error means the outcome is in doubt — the peer may have processed the
// frame even though its ack never arrived.
func (n *Node) exchange(pc *peerConn, f Frame) (resp Frame, wrote bool, err error) {
	if pc.wbuf, err = appendFrame(pc.wbuf[:0], f); err != nil {
		return Frame{}, false, err
	}
	pc.c.SetDeadline(time.Now().Add(n.cfg.CallTimeout))
	_, err = pc.c.Write(pc.wbuf)
	if cap(pc.wbuf) > maxKeptBuf {
		pc.wbuf = nil
	}
	if err == nil {
		wrote = true
		if resp, err = readFrame(pc.br, &pc.dec); err == io.EOF {
			err = errors.New("cluster: peer closed connection")
		}
	}
	if err != nil {
		pc.c.Close()
		pc.c = nil
		return Frame{}, wrote, err
	}
	return resp, true, nil
}

// call performs one request/response exchange on a peer's data
// connection, serialized against other data calls to the same peer.
// wrote is exchange's in-doubt discriminator.
func (n *Node) call(id string, f Frame) (Frame, bool, error) {
	pc, err := n.peerConnFor(id)
	if err != nil {
		return Frame{}, false, err
	}
	return n.callOn(pc, id, f)
}

// callHB is call on the peer's probe connection, so heartbeats never
// wait behind a long data exchange.
func (n *Node) callHB(id string, f Frame) (Frame, bool, error) {
	pc, err := n.hbConnFor(id)
	if err != nil {
		return Frame{}, false, err
	}
	return n.callOn(pc, id, f)
}

func (n *Node) callOn(pc *peerConn, id string, f Frame) (Frame, bool, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c == nil {
		// Torn down between peerConnFor and lock; redial inline.
		if err := n.dial(pc, id); err != nil {
			return Frame{}, false, err
		}
	}
	return n.exchange(pc, f)
}

// ---- probe / sweep loop ----

func (n *Node) probeLoop() {
	defer n.wg.Done()
	// Probe at once, not a period from now: a peer never proven alive
	// stays dead on a miss, so a seed that is not up yet loses nothing.
	n.probeOnce()
	n.router.SetMembers(n.mem.Routable())
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.probeOnce()
		n.router.SetMembers(n.mem.Routable())
		if n.fleet != nil {
			n.fleet.tick()
		}
		// Sweep on its own goroutine, single-flight: a large backlog
		// migration is many CallTimeout-bounded chunk exchanges, and
		// running it inline would starve heartbeats long enough for
		// peers to mark this node suspect mid-migration.
		if !n.sweepInProgress.Swap(true) {
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				defer n.sweepInProgress.Store(false)
				n.sweep()
			}()
		}
	}
}

// probeOnce heartbeats every configured peer, folding acks into
// membership and routing and counting misses against health.
func (n *Node) probeOnce() {
	for _, id := range n.mem.PeerIDs() {
		resp, _, err := n.callHB(id, n.viewFrame(FrameHeartbeat))
		if err != nil || resp.Type != FrameAck {
			if n.mem.ObserveMiss(id) {
				n.cfg.Logf("cluster: node %s marks peer %s unhealthy", n.cfg.NodeID, id)
			}
			continue
		}
		n.mem.Observe(resp)
		n.adoptView(resp)
	}
}

// sweep ships every locally hosted stream whose resolved owner is a
// different node: detach (quiesce-drain hand-off), then send the
// backlog in mig frames on the owner's mutex-held connection, so later
// forwards for the same stream queue behind the hand-off and the new
// owner sees the items in order. Each node heals its own misplacements,
// so the fleet leader only ever edits the override table. Stashed items
// from earlier failed hand-offs ride along: re-shipped with their
// stream when the owner is remote, requeued into the local backend when
// the stream routed back here.
func (n *Node) sweep() {
	keys := n.backend.StreamKeys()
	seen := make(map[string]struct{}, len(keys))
	for _, key := range keys {
		seen[key] = struct{}{}
	}
	for _, key := range n.stashKeys() {
		if _, ok := seen[key]; !ok {
			keys = append(keys, key)
		}
	}
	for _, key := range keys {
		owner := n.router.Owner(key)
		if owner == n.cfg.NodeID {
			n.requeueStash(key)
			continue
		}
		n.migrateStream(key, owner)
	}
}

// requeueStash re-admits a locally-owned stream's stashed items into
// the backend, keeping them stashed (and counted) if admission fails
// again.
func (n *Node) requeueStash(key string) {
	tenant, items := n.takeStash(key)
	if len(items) == 0 {
		return
	}
	if _, err := n.backend.IngestHandoff(tenant, key, items, true); err != nil {
		n.requeueFailed.Add(uint64(len(items)))
		n.putStash(key, tenant, items)
		n.cfg.Logf("cluster: node %s could not requeue %d stashed items for %q: %v",
			n.cfg.NodeID, len(items), key, err)
	}
}

// migrateStream ships one stream's backlog — any stashed remainder from
// earlier failed attempts, plus a fresh detach — to its owner. A chunk
// sequence that includes freshly detached items starts at Seq 0 so the
// receiver counts the migration once per stream; a stash-only re-ship
// continues at Seq 1, because the stream was already counted when its
// first chunk landed (or never detached at all).
func (n *Node) migrateStream(key, owner string) {
	pc, err := n.peerConnFor(owner)
	if err != nil {
		return // owner unreachable: the stream stays local for now
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c == nil {
		return
	}
	stashTenant, stashed := n.takeStash(key)
	items, tenant, detached := n.backend.DetachStream(key)
	if !detached && len(stashed) == 0 {
		return
	}
	if !detached {
		tenant = stashTenant
	}
	items = append(stashed, items...)
	firstSeq := 0
	if !detached {
		firstSeq = 1
	}
	// The first frame goes out even when the backlog is empty.
	for off, end, seq := 0, 0, firstSeq; off < len(items) || seq == firstSeq; off, seq = end, seq+1 {
		end = chunkEnd(items, off)
		chunk := items[off:end]
		resp, wrote, err := n.exchange(pc, Frame{
			Type: FrameMigrate, From: n.cfg.NodeID,
			Key: key, Items: chunk, Seq: seq, Tenant: tenant,
		})
		if err == nil && resp.Type != FrameMigrateAck {
			// The owner answered and refused: definitively not ingested.
			err = fmt.Errorf("cluster: migrate rejected: %s", resp.Error)
			wrote = false
		}
		if err != nil {
			rest := items[off:]
			if wrote {
				// Ack lost after a successful write: the owner may hold
				// the chunk. Re-shipping it could duplicate every item in
				// it, so count it into the migrate_indoubt ledger term and
				// keep only the never-written remainder.
				n.migrateInDoubt.Add(uint64(len(chunk)))
				rest = items[end:]
				n.cfg.Logf("cluster: node %s migrate of %q to %s: %d items in doubt (ack lost: %v)",
					n.cfg.NodeID, key, owner, len(chunk), err)
			}
			n.cfg.Logf("cluster: node %s failed to ship stream %q to %s: %v",
				n.cfg.NodeID, key, owner, err)
			if len(rest) == 0 {
				return
			}
			// Re-admit the remainder locally so no item is lost; the
			// sweep retries next tick. If the local backend refuses too
			// (drain race), stash the items and count them — silently
			// dropping them here is exactly the ledger leak the chaos
			// oracle exists to catch.
			if _, rerr := n.backend.IngestHandoff(tenant, key, rest, true); rerr != nil {
				n.requeueFailed.Add(uint64(len(rest)))
				n.putStash(key, tenant, rest)
				n.cfg.Logf("cluster: node %s could not requeue %d items for %q after failed hand-off: %v",
					n.cfg.NodeID, len(rest), key, rerr)
			}
			return
		}
	}
	n.cfg.Logf("cluster: node %s shipped stream %q (%d items) to %s",
		n.cfg.NodeID, key, len(items), owner)
}
