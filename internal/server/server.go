// Package server turns the PBPL runtime into a network daemon: it
// accepts work over HTTP (and an optional raw-TCP line protocol),
// routes each stream key into a producer-consumer pair created on
// demand, and exposes the runtime's wakeup economics over /metrics and
// /statusz. It is the layer that upgrades the library reproduction
// into the system the paper motivates (§I, §III): a server that is
// "rarely completely idle and seldom near maximum utilization",
// batching deferrable work so consumer cores wake as seldom as the
// latency bound allows.
//
// Design rules, in order:
//
//   - A payload is copied once, and only into a stream that keeps it:
//     each face reads into a buffer it reuses, the items are views of it
//     while routed, and a stream copies what it admits into its own
//     arena (arena.go) in the step that hands it to its pair. A forwarded
//     batch allocates no payload memory here, and the arena's chunks are
//     recycled in the order the pair drains them, so a steady stream
//     allocates only what replaces the spare chunks a GC took (spares
//     are weak, so they never count as live heap). The price is the
//     handler contract: a batch's payloads are valid only while the
//     handler runs. Headers and the verdict reuse pooled memory; the
//     rest is net/http's own.
//   - A full pair is backpressure before it is loss. The overflowing
//     PutBatch has already forced the drain (the paper's overflow
//     wakeup, §V), so the producer waits for it — parked on the pair
//     (repro.Pair.AwaitDrain), woken by the drain, never by a polling
//     clock — and offers the unadmitted tail again, for as long as the
//     pair's core manager keeps completing handler invocations (and
//     overflowWaitBound past the last one), HTTP delaying its ack and
//     the raw-TCP reader not reading, so the kernel's flow control slows
//     the sender. Only what still does not fit once the consumer side
//     has stood still that long is shed (HTTP 429 / TCP silent drop) and
//     counted. What never waits: the accept loops, other streams'
//     requests, a quarantined or closed pair, the tenant walls, and a
//     draining server.
//   - Every stream key maps to one pair (the paper's one-producer-
//     one-consumer pairing); pairs are created on first use and capped
//     by the runtime's MaxPairs (exhaustion is 503, not 429 — the
//     client cannot help by retrying a different item).
//   - Shutdown is drain-first: stop accepting, wait for in-flight
//     requests, then flush every pair through its core manager so
//     ItemsOut == ItemsIn before the process exits.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/power"
	"repro/internal/tenant"
)

// Config configures a Server. Runtime is required; the zero value of
// everything else is usable.
type Config struct {
	// Runtime hosts the pairs. The server does not close it; callers
	// own its lifecycle (close it after Shutdown returns).
	Runtime *repro.Runtime
	// HTTPAddr is the ingest+ops listen address. Default "127.0.0.1:0"
	// (an ephemeral port, readable from Addr after Start).
	HTTPAddr string
	// TCPAddr enables the raw line-protocol listener when non-empty.
	TCPAddr string
	// HandlerFor builds the consumer handler for a stream key. Default:
	// a handler that discards the batch (the runtime still counts it).
	// The handler runs on a core-manager goroutine — keep it fast. The
	// batch's payloads live in the stream's arena and are reused once the
	// handler returns: a handler copies whatever it keeps.
	HandlerFor func(key string) func(batch [][]byte)
	// HandlerFuncFor builds an error-aware consumer handler
	// (repro.Func): the context carries any repro.HandlerTimeout
	// deadline and a non-nil return feeds the pair's circuit breaker
	// and redelivery policy. Takes precedence over HandlerFor when
	// both are set. Payloads are valid only during the call, as for
	// HandlerFor; a batch offered again after a failure is byte-exact.
	HandlerFuncFor func(key string) func(ctx context.Context, batch [][]byte) error
	// PairOptions builds per-stream pair options (e.g. a tighter
	// latency bound for an interactive stream). Default: none.
	PairOptions func(key string) []repro.PairOption
	// MaxBodyBytes bounds one ingest request body. Default 1 MiB.
	MaxBodyBytes int64
	// MaxKeyLen bounds stream-key length. Default 128.
	MaxKeyLen int
	// Estimator prices the runtime's counters into the /metrics power
	// gauge. Zero value: power.Default() on one core with the
	// runtime's default Eq. 8 cost constants.
	Estimator power.Estimator
	// Tenants enables multi-tenant ingest: API-key auth on HTTP
	// (Authorization: Bearer / X-Api-Key) and raw TCP (leading
	// "auth <key>" line), per-tenant token-bucket rate admission at the
	// entry node, and per-tenant elastic buffer accounting at the
	// owning node. Nil (the default) keeps the open single-tenant
	// behavior.
	Tenants *tenant.Registry
	// Logf receives operational log lines. Default: discard.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Runtime == nil {
		return errors.New("server: nil Runtime")
	}
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.HandlerFor == nil {
		c.HandlerFor = func(string) func([][]byte) { return func([][]byte) {} }
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxKeyLen <= 0 {
		c.MaxKeyLen = 128
	}
	if c.Estimator.Model == (power.Model{}) {
		c.Estimator = power.Estimator{
			Model:         power.Default(),
			Cores:         1,
			OverheadMicro: 6.8,
			PerItemMicro:  1.7,
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// stream is one key's producer-consumer pair plus server-side
// bookkeeping (migration latch, observed rate; see streamMeta).
type stream struct {
	key  string
	pair *repro.Pair[[]byte]
	// tenantID binds the stream to the tenant that created it; a
	// second tenant addressing the same key is refused (403). Empty on
	// an open (registry-less) server, or for hand-offs whose tenant is
	// unknown to this node's registry.
	tenantID string
	// tn is the resolved tenant charged for this stream's buffer
	// usage; nil when unattributed.
	tn *tenant.Tenant
	// charged counts buffered items currently charged against tn in
	// the tenant pool: incremented at admission, decremented (and
	// released) when the consumer handler delivers, the stream detaches
	// for migration, or the pair closes. Items a faulty consumer drops
	// stay charged until close — the tenant pays for its own junk.
	charged atomic.Int64
	// arena holds the payloads of the items the pair buffers.
	arena arena
	streamMeta
}

// releaseCharged returns up to n of this stream's charged buffer items
// to the tenant pool, bounded by what the stream actually holds so a
// racing detach cannot double-release another stream's charge.
func (st *stream) releaseCharged(n int) {
	if st.tn == nil || n <= 0 {
		return
	}
	for {
		cur := st.charged.Load()
		rel := int64(n)
		if rel > cur {
			rel = cur
		}
		if rel <= 0 {
			return
		}
		if st.charged.CompareAndSwap(cur, cur-rel) {
			st.tn.ReleaseBuffer(int(rel))
			return
		}
	}
}

// Server is the pcd network front-end. Create with New, then Start.
type Server struct {
	cfg   Config
	rt    *repro.Runtime
	start time.Time

	// router resolves stream→owner in cluster mode; nil keeps every
	// stream local. Set via SetRouter before Start.
	router Router

	httpSrv *http.Server
	httpLn  net.Listener
	tcpLn   net.Listener

	tcpWG  sync.WaitGroup
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	mu      sync.RWMutex // exclusive only to create or detach a stream
	streams map[string]*stream

	draining atomic.Bool
	// stop closes when Shutdown begins, cutting overflow waits short.
	stop chan struct{}

	httpRequests    atomic.Uint64
	ingestedHTTP    atomic.Uint64
	ingestedTCP     atomic.Uint64
	shedHTTP        atomic.Uint64
	shedTCP         atomic.Uint64
	quarantinedHTTP atomic.Uint64
	quarantinedTCP  atomic.Uint64
	tcpMalformed    atomic.Uint64
	streamRejects   atomic.Uint64
	// Batches that found their pair full and waited for the forced
	// drain (putAll), for how long, and their wakeups, by entry protocol.
	overflowWaits       [numProtos]atomic.Uint64
	overflowWaitNs      [numProtos]atomic.Int64
	overflowWaitWakeups [numProtos]atomic.Uint64

	// Cluster-path accounting (all zero on a clusterless server).
	forwardedOut       atomic.Uint64 // items shipped to their owner
	forwardedIn        atomic.Uint64 // items accepted off peer forwards
	forwardFallbacks   atomic.Uint64 // forwards that fell back to local ingest
	redirects          atomic.Uint64 // smart-client 307 answers
	migrationsOut      atomic.Uint64 // streams detached and shipped away
	migrationsIn       atomic.Uint64 // stream hand-offs received
	migratedOutItems   atomic.Uint64
	migratedInItems    atomic.Uint64
	shedMigrate        atomic.Uint64 // migrated items shed at the new owner
	quarantinedMigrate atomic.Uint64 // migrated items rejected by quarantine
}

// New validates the config and builds a stopped server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		rt:      cfg.Runtime,
		start:   time.Now(),
		streams: make(map[string]*stream),
		conns:   make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest/", s.handleIngest)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.registerDebug(mux)
	// A clean ingest path skips the mux's trailing-slash match, which
	// allocates; every path the mux would clean or redirect reaches it.
	ingestFirst := func(w http.ResponseWriter, r *http.Request) {
		if p := r.URL.Path; strings.HasPrefix(p, "/ingest/") && path.Clean(p) == p {
			s.handleIngest(w, r)
		} else {
			mux.ServeHTTP(w, r)
		}
	}
	s.httpSrv = &http.Server{Handler: http.HandlerFunc(ingestFirst), ReadHeaderTimeout: 10 * time.Second}
	return s, nil
}

// Start binds the listeners and begins serving in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("server: http listen: %w", err)
	}
	s.httpLn = ln
	if s.cfg.TCPAddr != "" {
		tln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("server: tcp listen: %w", err)
		}
		s.tcpLn = tln
		s.tcpWG.Add(1)
		go func() {
			defer s.tcpWG.Done()
			s.acceptTCP(tln)
		}()
		s.cfg.Logf("pcd: tcp ingest on %s", tln.Addr())
	}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logf("pcd: http serve: %v", err)
		}
	}()
	s.cfg.Logf("pcd: http on %s", ln.Addr())
	return nil
}

// Addr returns the bound HTTP address ("" before Start).
func (s *Server) Addr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// TCPAddr returns the bound raw-TCP address ("" when disabled).
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// Shutdown drains the server: stop accepting, wait for in-flight
// requests and connections, then flush every stream's pair through the
// core managers. The runtime itself stays open (Close it afterwards).
// Shutdown is idempotent; ctx bounds the whole drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	close(s.stop)
	var firstErr error
	// Raw TCP: stop accepting, unblock readers, wait for handlers.
	if s.tcpLn != nil {
		s.tcpLn.Close()
		s.connMu.Lock()
		for c := range s.conns {
			c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		done := make(chan struct{})
		go func() {
			s.tcpWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			firstErr = ctx.Err()
			s.connMu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
		}
	}
	// HTTP: stop accepting, wait for in-flight requests.
	if err := s.httpSrv.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	// Flush: close every pair; Pair.Close drains the remaining buffer
	// through its manager before releasing pool capacity.
	s.mu.RLock()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.RUnlock()
	for _, st := range streams {
		if err := st.pair.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		// Close drained what it could through the handler (which
		// released its own charge); whatever is still charged was
		// dropped or retained — hand it back to the tenant pool.
		st.releaseCharged(int(st.charged.Load()))
	}
	s.cfg.Logf("pcd: drained %d streams", len(streams))
	return firstErr
}

// errTenantMismatch rejects a tenant addressing a stream key another
// tenant already owns (HTTP 403).
var errTenantMismatch = errors.New("stream key owned by another tenant")

// streamFor returns the key's stream, creating its pair on first use.
// With a tenant registry, the creating tenant owns the key: a later
// caller under a different tenant id is refused, and the consumer
// handler is wrapped so delivered items return their tenant's buffer
// charge to the elastic pool.
func (s *Server) streamFor(key, tenantID string) (*stream, error) {
	s.mu.RLock()
	st, ok := s.streams[key]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		if st, ok = s.streams[key]; !ok {
			return s.openStreamLocked(key, tenantID)
		}
	}
	if s.cfg.Tenants != nil && st.tenantID != tenantID {
		return nil, errTenantMismatch
	}
	return st, nil
}

// openStreamLocked opens the key's pair and registers its stream;
// s.mu is held exclusively.
func (s *Server) openStreamLocked(key, tenantID string) (*stream, error) {
	var opts []repro.PairOption
	if s.cfg.PairOptions != nil {
		opts = s.cfg.PairOptions(key)
	}
	st := &stream{key: key, tenantID: tenantID}
	if s.cfg.Tenants != nil && tenantID != "" {
		st.tn = s.cfg.Tenants.TenantByID(tenantID)
	}
	// Every stream is fed by however many connection goroutines the
	// clients open, so the pair's producers must serialise on its lock.
	opts = append(opts, repro.ConcurrentProducers())
	var handle func(context.Context, [][]byte) error
	if s.cfg.HandlerFuncFor != nil {
		handle = s.cfg.HandlerFuncFor(key)
	} else {
		fn := s.cfg.HandlerFor(key)
		handle = func(_ context.Context, batch [][]byte) error {
			fn(batch)
			return nil
		}
	}
	h := repro.Func(func(ctx context.Context, batch [][]byte) error {
		first, last := payloadBounds(batch) // before the handler can touch the headers
		st.arena.begin(first)
		herr := handle(ctx, batch)
		if herr == nil {
			st.releaseCharged(len(batch))
		}
		// A failed batch stays buffered (retained for redelivery) and so
		// stays charged, and its bytes stay. So do those of a batch that
		// ran under a deadline: the pair may count it overrun and offer it
		// again, so they are freed when a different batch is handed over.
		_, timed := ctx.Deadline()
		st.arena.end(first, last, herr == nil && !timed)
		return herr
	})
	p, err := repro.Open(s.rt, h, opts...)
	if err != nil {
		s.streamRejects.Add(1)
		return nil, err
	}
	st.pair = p
	s.streams[key] = st
	s.cfg.Logf("pcd: opened stream %q (pair %d, tenant %q)", key, p.ID(), tenantID)
	return st, nil
}

// apiKey extracts the caller's API key: "Authorization: Bearer <key>"
// or the simpler "X-Api-Key: <key>".
func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-Api-Key"); k != "" {
		return k
	}
	const scheme = "Bearer "
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, scheme) {
		return h[len(scheme):]
	}
	return ""
}

// validKey bounds key length and charset (printable, no '/').
func (s *Server) validKey(key string) bool {
	if key == "" || len(key) > s.cfg.MaxKeyLen {
		return false
	}
	return !strings.ContainsAny(key, "/ \t\r\n")
}

var newline = []byte{'\n'}

// splitItems appends one item per non-empty line of a newline-delimited
// ingest body to dst. The items are sub-slices of body, capacity
// clipped so appending to one cannot reach its neighbour.
func splitItems(dst [][]byte, body []byte) [][]byte {
	for len(body) > 0 {
		var line []byte
		line, body, _ = bytes.Cut(body, newline)
		if line = bytes.TrimRight(line, "\r"); len(line) > 0 {
			dst = append(dst, line[:len(line):len(line)])
		}
	}
	return dst
}

// itemHeaders recycles each request's body buffer, item headers and
// verdict buffer: nothing downstream of routedIngest keeps the headers
// or the body (a stream copies what it admits into its arena).
var itemHeaders = sync.Pool{New: func() any { return new(ingestScratch) }}

type ingestScratch struct {
	body  []byte
	items [][]byte
	ack   []byte
}

const maxKeptBody = 1 << 20 // the largest body buffer the pool keeps

// jsonContentType is shared so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// readBody reads one ingest body into buf, reused from request to
// request: to its declared length when that is within the limit
// (net/http bounds the body at it), else through MaxBytesReader, which
// refuses a chunked or declared body over the limit.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		buf = slices.Grow(buf[:0], int(n))[:n]
		_, err := io.ReadFull(r.Body, buf)
		return buf, err
	}
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	return b.Bytes(), err
}

// writeVerdict writes an ingest verdict, rendered into buf (returned
// for reuse) exactly as %q and %d print it: 503 when any item met a
// quarantined pair, else 429 when any was shed, else 200.
func writeVerdict(w http.ResponseWriter, buf []byte, key string, res IngestResult, route Route) []byte {
	buf = strconv.AppendQuote(append(buf[:0], `{"stream":`...), key)
	buf = strconv.AppendInt(append(buf, `,"accepted":`...), int64(res.Accepted), 10)
	buf = strconv.AppendInt(append(buf, `,"shed":`...), int64(res.Shed), 10)
	buf = strconv.AppendInt(append(buf, `,"quarantined":`...), int64(res.Quarantined), 10)
	if !route.Local {
		buf = strconv.AppendQuote(append(buf, `,"owner":`...), route.Owner)
	}
	buf = append(buf, "}\n"...)
	w.Header()["Content-Type"] = jsonContentType
	switch {
	case res.Quarantined > 0:
		w.WriteHeader(http.StatusServiceUnavailable)
	case res.Shed > 0:
		w.WriteHeader(http.StatusTooManyRequests)
	}
	w.Write(buf)
	return buf
}

// handleIngest serves POST /ingest/<key>: each newline-delimited body
// record is one item. A batch that finds the pair at quota waits for
// the drain its overflow forced, delaying this ack (putAll); items
// still without room after the bound are shed and reported with 429 —
// the producer-facing face of the paper's overflow wakeup. In cluster
// mode a key owned by another node is forwarded to it — or, when the
// client sent "X-Pcd-Redirect: 1", answered with 307 to the owner's
// ingest URL so smart clients pin the owner and skip the extra hop.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		http.Error(w, "POST items to /ingest/<stream>", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var tn *tenant.Tenant
	if reg := s.cfg.Tenants; reg != nil {
		if tn = reg.Authorize(apiKey(r)); tn == nil {
			http.Error(w, "unauthorized: unknown API key", http.StatusUnauthorized)
			return
		}
	}
	key := strings.TrimPrefix(r.URL.Path, "/ingest/")
	if !s.validKey(key) {
		http.Error(w, "bad stream key", http.StatusBadRequest)
		return
	}
	scratch := itemHeaders.Get().(*ingestScratch)
	defer func() {
		if cap(scratch.body) > maxKeptBody {
			scratch.body, scratch.items = nil, nil
		}
		itemHeaders.Put(scratch)
	}()
	var err error
	if scratch.body, err = s.readBody(w, r, scratch.body); err != nil {
		http.Error(w, "body read: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	scratch.items = splitItems(scratch.items[:0], scratch.body)
	items := scratch.items
	if len(items) == 0 {
		http.Error(w, "empty body: newline-delimited items expected", http.StatusBadRequest)
		return
	}
	// Rate admission is charged where the request enters the fleet —
	// before routing — so a hot tenant burns its own budget on its own
	// requests regardless of which node owns the stream. Buffer budget
	// is charged at the owning node (putAll), where the items live.
	tenantID, rateShed := "", 0
	if tn != nil {
		tenantID = tn.ID()
		adm := tn.AdmitRate(len(items))
		if rateShed = len(items) - adm; rateShed > 0 {
			tn.CountShedRate(rateShed)
			items = items[:adm]
		}
		if len(items) == 0 {
			scratch.ack = writeVerdict(w, scratch.ack, key, IngestResult{Shed: rateShed}, Route{Local: true})
			return
		}
	}
	if rt := s.router; rt != nil && r.Header.Get("X-Pcd-Redirect") != "" {
		// Redirect only once the stream is no longer hosted here: while
		// the backlog awaits its migration sweep, local ingest keeps the
		// stream's items in one ordered line.
		if route := rt.Resolve(key); !route.Local && route.OwnerHTTP != "" && !s.hosts(key) {
			s.redirects.Add(1)
			w.Header().Set("X-Pcd-Owner", route.Owner)
			http.Redirect(w, r, "http://"+route.OwnerHTTP+"/ingest/"+key, http.StatusTemporaryRedirect)
			return
		}
	}
	res, route, err := s.routedIngest(protoHTTP, tenantID, key, items)
	if err != nil {
		if errors.Is(err, errTenantMismatch) {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	res.Shed += rateShed
	if route.Local {
		s.ingestedHTTP.Add(uint64(res.Accepted))
		s.shedHTTP.Add(uint64(res.Shed))
		s.quarantinedHTTP.Add(uint64(res.Quarantined))
	} else {
		s.shedHTTP.Add(uint64(rateShed))
	}
	scratch.ack = writeVerdict(w, scratch.ack, key, res, route)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// snapshotStreams returns streams joined with their pair snapshots,
// ordered by pair id.
type streamSnapshot struct {
	Key string `json:"key"`
	repro.PairSnapshot
}

func (s *Server) snapshotStreams() []streamSnapshot {
	byID := s.streamKeysByPair()
	snaps := s.rt.PairSnapshots()
	out := make([]streamSnapshot, 0, len(snaps))
	for _, ps := range snaps {
		key, ok := byID[ps.ID]
		if !ok {
			// A pair owned by the embedding program, not this server.
			continue
		}
		out = append(out, streamSnapshot{Key: key, PairSnapshot: ps})
	}
	return out
}

// managerz is one core manager's row in /statusz.
type managerz struct {
	ID          int    `json:"id"`
	Pairs       int    `json:"pairs"`
	TimerWakes  uint64 `json:"timer_wakes"`
	ForcedWakes uint64 `json:"forced_wakes"`
}

// placementz is the placement/consolidation section of /statusz: where
// every pair lives, and what the controller last decided.
type placementz struct {
	Enabled         bool       `json:"enabled"`
	ActiveManagers  int        `json:"active_managers"`
	Plans           uint64     `json:"plans"`
	MigrationsTotal uint64     `json:"migrations_total"`
	LastPlanAt      string     `json:"last_plan_at,omitempty"`
	LastPlanPairs   int        `json:"last_plan_pairs"`
	LastPlanActive  int        `json:"last_plan_active"`
	LastPlanMoves   int        `json:"last_plan_moves"`
	LastPlanApplied int        `json:"last_plan_applied"`
	Managers        []managerz `json:"managers"`
}

// placementStatus assembles the placement section from the runtime.
func (s *Server) placementStatus() placementz {
	ps := s.rt.Placement()
	out := placementz{
		Enabled:         ps.Enabled,
		Plans:           ps.Plans,
		MigrationsTotal: ps.Migrations,
		LastPlanPairs:   ps.LastPlan.Pairs,
		LastPlanActive:  ps.LastPlan.Active,
		LastPlanMoves:   ps.LastPlan.Moves,
		LastPlanApplied: ps.LastPlan.Applied,
	}
	if !ps.LastPlan.At.IsZero() {
		out.LastPlanAt = ps.LastPlan.At.UTC().Format(time.RFC3339Nano)
	}
	for _, m := range s.rt.ManagerSnapshots() {
		if m.Pairs > 0 {
			out.ActiveManagers++
		}
		out.Managers = append(out.Managers, managerz{
			ID:          m.ID,
			Pairs:       m.Pairs,
			TimerWakes:  m.TimerWakes,
			ForcedWakes: m.ForcedWakes,
		})
	}
	return out
}

// powerz is the power-cap section of /statusz: the configured budget,
// the smoothed estimate the cap governs, and where the throttle ladder
// currently sits.
type powerz struct {
	Enabled        bool    `json:"enabled"`
	Pace           bool    `json:"pace"`
	CapMilliwatts  float64 `json:"cap_milliwatts"`
	EstimatedMW    float64 `json:"estimated_milliwatts"`
	WindowMW       float64 `json:"window_milliwatts"`
	Step           int     `json:"step"`
	Throttled      bool    `json:"throttled"`
	Frequency      float64 `json:"frequency"`
	OmegaScale     float64 `json:"omega_scale"`
	BudgetScale    float64 `json:"budget_scale"`
	ThrottleEvents uint64  `json:"throttle_events_total"`
}

// powerStatus assembles the power-cap section; nil without WithPowerCap.
func (s *Server) powerStatus() *powerz {
	ps := s.rt.PowerCap()
	if !ps.Enabled {
		return nil
	}
	return &powerz{
		Enabled:        true,
		Pace:           ps.Pace,
		CapMilliwatts:  ps.CapMilliwatts,
		EstimatedMW:    ps.EstimatedMilliwatts,
		WindowMW:       ps.WindowMilliwatts,
		Step:           ps.Step,
		Throttled:      ps.Throttled,
		Frequency:      ps.Frequency,
		OmegaScale:     ps.OmegaScale,
		BudgetScale:    ps.BudgetScale,
		ThrottleEvents: ps.ThrottleEvents,
	}
}

// statusz is the JSON shape served by /statusz.
type statusz struct {
	UptimeSeconds    float64                  `json:"uptime_seconds"`
	Draining         bool                     `json:"draining"`
	Runtime          repro.Stats              `json:"runtime"`
	WakeupsPerSecond float64                  `json:"wakeups_per_second"`
	EstPowerMW       float64                  `json:"estimated_power_milliwatts"`
	IngestedHTTP     uint64                   `json:"ingested_http"`
	IngestedTCP      uint64                   `json:"ingested_tcp"`
	ShedHTTP         uint64                   `json:"shed_http"`
	ShedTCP          uint64                   `json:"shed_tcp"`
	QuarantinedHTTP  uint64                   `json:"quarantined_http"`
	QuarantinedTCP   uint64                   `json:"quarantined_tcp"`
	StreamRejects    uint64                   `json:"stream_rejects"`
	OverflowWaits    map[string]overflowWaitz `json:"ingest_overflow_waits"`
	Placement        placementz               `json:"placement"`
	Power            *powerz                  `json:"power,omitempty"`
	Cluster          *clusterz                `json:"cluster,omitempty"`
	Tenants          *tenant.RegistrySnapshot `json:"tenants,omitempty"`
	Streams          []streamSnapshot         `json:"streams"`
}

// overflowWaitz is one protocol's row of the /statusz overflow-wait
// table: batches that waited for a forced drain, for how long, and how
// often the waits woke their producer — slow acks with Shed still 0
// mean the consumer is behind, not that items are being lost.
type overflowWaitz struct {
	Waits   uint64  `json:"waits"`
	Seconds float64 `json:"seconds"`
	Wakeups uint64  `json:"wakeups"`
}

func (s *Server) overflowWaitStatus() map[string]overflowWaitz {
	out := make(map[string]overflowWaitz, numProtos)
	for p, name := range protoNames {
		out[name] = overflowWaitz{
			Waits:   s.overflowWaits[p].Load(),
			Seconds: time.Duration(s.overflowWaitNs[p].Load()).Seconds(),
			Wakeups: s.overflowWaitWakeups[p].Load(),
		}
	}
	return out
}

// clusterz is the cluster section of /statusz: membership (peer states)
// and this node's share of the fleet (owned streams, forwarding and
// migration traffic).
type clusterz struct {
	ClusterStatus
	OwnedStreams []string `json:"owned_streams"`
}

// clusterStatus assembles the cluster section; nil without a router.
func (s *Server) clusterStatus() *clusterz {
	r := s.router
	if r == nil {
		return nil
	}
	cs := r.Status()
	cs.ForwardsOutItems = s.forwardedOut.Load()
	cs.ForwardsInItems = s.forwardedIn.Load()
	cs.ForwardFallbacks = s.forwardFallbacks.Load()
	cs.MigrationsOut = s.migrationsOut.Load()
	cs.MigrationsIn = s.migrationsIn.Load()
	cs.MigratedItemsOut = s.migratedOutItems.Load()
	cs.MigratedItemsIn = s.migratedInItems.Load()
	cs.MigrateShedItems = s.shedMigrate.Load()
	cs.MigrateQuarantinedItems = s.quarantinedMigrate.Load()
	keys := s.StreamKeys()
	sort.Strings(keys)
	return &clusterz{ClusterStatus: cs, OwnedStreams: keys}
}

// statusSnapshot assembles the full /statusz document. The chaos
// oracle also reads it post-drain (via StatusJSON) as a node's final
// conservation-ledger testimony, so it must stay safe to call after
// Shutdown.
func (s *Server) statusSnapshot() statusz {
	stats := s.rt.Stats()
	elapsed := time.Since(s.start)
	return statusz{
		UptimeSeconds:    elapsed.Seconds(),
		Draining:         s.draining.Load(),
		Runtime:          stats,
		WakeupsPerSecond: wakeupsPerSecond(stats, elapsed),
		EstPowerMW:       s.estimatePower(stats, elapsed),
		IngestedHTTP:     s.ingestedHTTP.Load(),
		IngestedTCP:      s.ingestedTCP.Load(),
		ShedHTTP:         s.shedHTTP.Load(),
		ShedTCP:          s.shedTCP.Load(),
		QuarantinedHTTP:  s.quarantinedHTTP.Load(),
		QuarantinedTCP:   s.quarantinedTCP.Load(),
		StreamRejects:    s.streamRejects.Load(),
		OverflowWaits:    s.overflowWaitStatus(),
		Placement:        s.placementStatus(),
		Power:            s.powerStatus(),
		Cluster:          s.clusterStatus(),
		Tenants:          s.tenantStatus(),
		Streams:          s.snapshotStreams(),
	}
}

// tenantStatus assembles the /statusz tenant table; nil without a
// registry.
func (s *Server) tenantStatus() *tenant.RegistrySnapshot {
	reg := s.cfg.Tenants
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	return &snap
}

// StatusJSON renders the /statusz document. pcd's -final-status flag
// uses it to leave a node's post-drain ledger on disk for the chaos
// oracle after the process (and its HTTP listener) are gone.
func (s *Server) StatusJSON() ([]byte, error) {
	return json.MarshalIndent(s.statusSnapshot(), "", "  ")
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.statusSnapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
