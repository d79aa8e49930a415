// Stream routing: the ingest path's stream→owner resolution, extracted
// behind the Router interface so it is pluggable. A clusterless server
// owns every stream (the nil Router); internal/cluster plugs in a
// rendezvous-hash router with membership health and fleet placement so
// a node that receives a Put for a stream it does not own forwards it
// to the owner — or answers a redirect for smart clients — and whole
// nodes can go idle under light aggregate load (the paper's Eq. 4
// objective lifted to fleet scale).
package server

import (
	"errors"
	"sync"
	"time"

	"repro"
)

// IngestResult is one admission verdict: how many items a node
// accepted into the stream's pair, shed at quota, or rejected because
// the pair was quarantined.
type IngestResult struct {
	Accepted    int
	Shed        int
	Quarantined int
}

func (r *IngestResult) add(o IngestResult) {
	r.Accepted += o.Accepted
	r.Shed += o.Shed
	r.Quarantined += o.Quarantined
}

// proto names the face a batch entered this node by; it labels the
// per-protocol ingest counters.
type proto int

const (
	protoHTTP proto = iota
	protoTCP
	protoFwd // forwarded by a peer over the cluster wire
	protoMig // handed off by a pair migration, or requeued after a failed one
	numProtos
)

var protoNames = [numProtos]string{"http", "tcp", "fwd", "mig"}

// Route is the resolution of one stream key to its owning node.
type Route struct {
	// Local reports that this node owns the stream.
	Local bool
	// Owner is the owning node's id ("" on a clusterless server).
	Owner string
	// OwnerHTTP is the owner's HTTP ingest base address ("host:port"),
	// used to answer redirects to smart clients.
	OwnerHTTP string
}

// Router resolves stream ownership for a node in a pcd cluster. It is
// transport-agnostic: the server only asks who owns a key, and hands
// non-owned items over for forwarding. Implementations must be safe
// for concurrent use. See internal/cluster for the real one.
type Router interface {
	// Resolve maps a stream key to its current owner.
	Resolve(key string) Route
	// Forward ships items for a remotely-owned stream to its owner and
	// returns the owner's admission verdict. tenant carries the
	// authenticated tenant id ("" on an open server) so the owner
	// charges the right buffer budget. An error means the items were
	// NOT delivered (the caller falls back to local ingest so no item
	// is lost to routing). Forward keeps nothing of the caller's: the
	// slice and the payloads may both be reused once it returns (HTTP
	// items are views of a pooled body buffer). Items it re-admits
	// locally are copied by the stream that admits them; anything else
	// it keeps, it copies itself.
	Forward(tenant, key string, items [][]byte) (IngestResult, error)
	// Status reports cluster state for /statusz and /metrics.
	Status() ClusterStatus
}

// PeerStatus is one peer's row in the cluster status.
type PeerStatus struct {
	ID       string  `json:"id"`
	Addr     string  `json:"addr"`
	HTTP     string  `json:"http,omitempty"`
	State    string  `json:"state"` // "alive", "suspect", "dead"
	LastSeen string  `json:"last_seen,omitempty"`
	Streams  int     `json:"streams"`  // owned streams it last reported
	RateSum  float64 `json:"rate_sum"` // items/s it last reported
}

// ClusterStatus is the cluster section of /statusz and the source of
// the pcd_cluster_* metric families.
type ClusterStatus struct {
	Enabled  bool         `json:"enabled"`
	NodeID   string       `json:"node_id"`
	Epoch    uint64       `json:"epoch"`     // routing epoch (bumps on membership/override change)
	RouteGen uint64       `json:"route_gen"` // fleet override-table generation
	Leader   string       `json:"leader,omitempty"`
	Peers    []PeerStatus `json:"peers"`
	// Overrides is the number of fleet placement overrides in force.
	Overrides int `json:"overrides"`
	// Item counters over the forwarding and migration paths.
	ForwardsOutItems uint64 `json:"forwards_out_items"`
	ForwardsInItems  uint64 `json:"forwards_in_items"`
	ForwardFallbacks uint64 `json:"forward_fallbacks"`
	MigrationsOut    uint64 `json:"migrations_out"` // streams shipped away
	MigrationsIn     uint64 `json:"migrations_in"`  // streams received
	MigratedItemsOut uint64 `json:"migrated_items_out"`
	MigratedItemsIn  uint64 `json:"migrated_items_in"`
	// Conservation-ledger slack and failure terms. In-doubt items were
	// written to a peer whose ack never arrived — they may or may not
	// have been ingested, and are never re-sent, so the fleet ledger
	// tolerates them as bounded slack rather than exact loss. Requeue
	// failures and the stash gauge track items owed to streams after a
	// failed hand-off whose local re-admission also failed; the sweep
	// retries them until they land.
	ForwardInDoubtItems     uint64 `json:"forward_indoubt_items"`
	MigrateInDoubtItems     uint64 `json:"migrate_indoubt_items"`
	RequeueFailedItems      uint64 `json:"migrate_requeue_failed_items"`
	StashedItems            uint64 `json:"stashed_items"`
	MigrateShedItems        uint64 `json:"migrate_shed_items"`
	MigrateQuarantinedItems uint64 `json:"migrate_quarantined_items"`
}

// SetRouter plugs a cluster router into the ingest path. It must be
// called before Start; a nil router (the default) keeps every stream
// local.
func (s *Server) SetRouter(r Router) { s.router = r }

// ingestLocal admits items into the key's local pair, creating it on
// first use — the stream-local half of the ingest path, shared by HTTP,
// raw TCP, and frames forwarded from peers. The returned error is
// non-nil only when the stream cannot exist at all (pair table full) or
// the server is draining.
func (s *Server) ingestLocal(src proto, tenantID, key string, items [][]byte) (IngestResult, error) {
	var total IngestResult
	for attempt := 0; ; attempt++ {
		st, err := s.streamFor(key, tenantID)
		if err != nil {
			if total == (IngestResult{}) {
				return total, err
			}
			// Part of the batch went into a pair that was then detached
			// and the key cannot be reopened: the verdict on what was
			// admitted must still reach the caller.
			total.Shed += len(items)
			return total, nil
		}
		res, rest := s.putAll(src, st, items)
		total.add(res)
		if len(rest) == 0 {
			return total, nil
		}
		// The stream was detached (migrated away) between lookup and
		// Put, or while the tail waited out an overflow. Re-resolve: the
		// router now points at the new owner; after a few tries fall back
		// to a fresh local pair so items are never lost to a routing
		// race.
		items = rest
		if r := s.router; r != nil && attempt < 3 {
			if rt := r.Resolve(key); !rt.Local {
				if res, err := r.Forward(tenantID, key, items); err == nil {
					total.add(res)
					return total, nil
				}
			}
		}
	}
}

// overflowWaitBound is putAll's stall bound: how long the pair's core
// manager may complete no handler invocation before the tail that found
// the pair full is shed. The forced drain queues behind the manager's
// current round, and a healthy round can outlast any fixed wall-clock
// bound (p99 rounds of 38–101 ms under the saturating benchmark), so the
// bound is what a producer pays when the consumer is wedged, not busy.
// Migrated items already survived one node and get handoffWaitBound.
const (
	overflowWaitBound = 50 * time.Millisecond
	handoffWaitBound  = 250 * time.Millisecond
)

// putAll offers items to the stream's pair as one batch and returns the
// verdict plus the items it could not place because the stream was
// detached (the caller re-resolves those; everything else is accounted
// in the verdict). Each offer copies the items into the stream's arena
// (arena.put); items and the returned tail are the caller's.
//
// A full pair is the paper's overflow (§V): PutBatch has forced the
// drain, and the producer waits on it (Pair.AwaitDrain) and offers the
// tail again until it fits; only once the manager stalls for the bound,
// or Shutdown begins, is it shed. A quarantined or closed pair and a
// draining server never wait. The stream's read lock is dropped while
// waiting, so a pending DetachStream (a writer, which would stall every
// other reader behind it) is delayed by one PutBatch, not by the wait.
//
// With a tenant registry the stream's tenant is charged first: items
// beyond the elastic buffer grant are shed at the tenant layer before
// the pair ever sees them (the tenant-fairness wall, which never
// waits), grants that the pair then sheds are returned, and accepted
// items stay charged until the consumer handler delivers them
// (releaseCharged). Migrated items (protoMig) were charged once already:
// conservation outranks the wall, so what the pool cannot grant is
// admitted uncharged (usage may undercount, never overcount).
func (s *Server) putAll(src proto, st *stream, items [][]byte) (res IngestResult, detached [][]byte) {
	st.mu.RLock()
	if st.detached {
		st.mu.RUnlock()
		return res, items
	}
	grant := len(items)
	if st.tn != nil {
		grant = st.tn.AcquireBuffer(len(items))
		// Charge before the Put: the consumer may deliver (and release)
		// an item the instant it lands.
		st.charged.Add(int64(grant))
	}
	rest, stall := items[:grant], overflowWaitBound
	if src == protoMig {
		rest, stall = items, handoffWaitBound
	}
	res.Shed = len(items) - len(rest)
	var waitFrom time.Time
	var wakeups uint64
	for {
		n, err := st.arena.put(st.pair, rest)
		res.Accepted += n
		rest = rest[n:]
		if errors.Is(err, repro.ErrOverflow) && !s.draining.Load() {
			if waitFrom.IsZero() {
				waitFrom = time.Now()
			}
			st.mu.RUnlock()
			retry := st.pair.AwaitDrain(stall, s.stop)
			wakeups++
			st.mu.RLock()
			if st.detached {
				// DetachStream has already returned whatever the stream
				// held charged, this call's unplaced grant included.
				detached = rest
				break
			}
			if retry {
				continue
			}
		}
		if errors.Is(err, repro.ErrQuarantined) {
			res.Quarantined += len(rest)
		} else {
			res.Shed += len(rest) // closed, draining, or the consumer stood still
		}
		break
	}
	st.mu.RUnlock()
	if !waitFrom.IsZero() {
		s.overflowWaits[src].Add(1)
		s.overflowWaitNs[src].Add(int64(time.Since(waitFrom)))
		s.overflowWaitWakeups[src].Add(wakeups)
	}
	if st.tn != nil {
		st.releaseCharged(grant - min(res.Accepted, grant)) // unplaced items return their grant
		st.tn.CountAccepted(res.Accepted)
		st.tn.CountShedBuffer(res.Shed)
		st.tn.CountQuarantined(res.Quarantined)
	}
	return res, detached
}

// routedIngest is the full ingest path: resolve the key's owner, admit
// locally when owned, otherwise forward — falling back to local ingest
// when the forward fails, so no item is ever lost to routing. The
// returned Route lets HTTP callers answer redirects instead.
func (s *Server) routedIngest(src proto, tenantID, key string, items [][]byte) (IngestResult, Route, error) {
	if res, route, ok := s.forward(tenantID, key, items); ok {
		return res, route, nil
	}
	res, err := s.ingestLocal(src, tenantID, key, items)
	return res, Route{Local: true}, err
}

// forward ships items for a key another node owns to that owner, as
// they are: Router.Forward keeps nothing of the caller's. It reports
// false, having delivered nothing, when the items stay on this node:
// there is no router, this node owns the key or still hosts its
// stream, or the owner is unreachable (counted in forwardFallbacks).
//
// A stream this node still hosts keeps ingesting locally even when the
// router points elsewhere: the ownership sweep ships the whole backlog
// (detach + hand-off) before any forward for the key can be sent, so
// the new owner sees items in arrival order. Forwarding starts the
// moment the stream is detached.
func (s *Server) forward(tenantID, key string, items [][]byte) (IngestResult, Route, bool) {
	r := s.router
	if r == nil {
		return IngestResult{}, Route{}, false
	}
	route := r.Resolve(key)
	if route.Local || s.hosts(key) {
		return IngestResult{}, Route{}, false
	}
	res, err := r.Forward(tenantID, key, items)
	if err != nil {
		// Owner unreachable: admit locally. The ownership sweep
		// re-ships the stream once the owner is back (or the routing
		// table moves on).
		s.forwardFallbacks.Add(1)
		return IngestResult{}, Route{}, false
	}
	s.forwardedOut.Add(uint64(len(items)))
	return res, route, true
}

// hosts reports whether this node currently hosts the key's stream
// (present and not mid-detach).
func (s *Server) hosts(key string) bool {
	s.mu.RLock()
	st, ok := s.streams[key]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return !st.detached
}

// IngestForwarded admits items forwarded by a peer. Forwarded frames
// are authoritative — they are never re-forwarded, so two nodes with
// briefly divergent routing tables cannot bounce items in a loop.
// tenant is the entry node's authenticated tenant id; with a registry,
// a tenant this node does not know is refused so the entry node falls
// back to local ingest under its own (authenticated) attribution
// rather than this node admitting unattributed items. It keeps neither
// the slice nor the payloads: the stream copies what it admits into its
// arena, so the cluster wire decoder hands over views of its reused
// buffer.
func (s *Server) IngestForwarded(tenant, key string, items [][]byte) (IngestResult, error) {
	if s.draining.Load() {
		return IngestResult{}, errors.New("draining")
	}
	if !s.validKey(key) {
		return IngestResult{}, errors.New("bad stream key")
	}
	if reg := s.cfg.Tenants; reg != nil && reg.TenantByID(tenant) == nil {
		return IngestResult{}, errors.New("unknown tenant " + tenant)
	}
	res, err := s.ingestLocal(protoFwd, tenant, key, items)
	if err == nil {
		s.forwardedIn.Add(uint64(res.Accepted))
	}
	return res, err
}

// IngestHandoff admits items shipped by a cross-node pair migration (or
// requeued by the sender after a failed one) through putAll, one batch
// per attempt, with handoffWaitBound to wait out an overflow: shedding
// migrated items at the door would turn every migration into item loss.
// Like IngestForwarded it keeps neither the slice nor the payloads.
// What is still shed, or meets a quarantined pair, is classified as for
// any ingest, so the ledger's Shed and Quarantined terms stay honest.
//
// The stream may detach while the chunk's tail waits (the wait does not
// hold the stream lock). The tail is then forwarded to the new owner like
// any detached tail, and lands behind the backlog the detach shipped: the
// sweep holds the owner's connection from DetachStream until the last mig
// frame is acknowledged, and the forward queues on that connection.
//
// cont marks a continuation chunk of a hand-off already under way (a
// later mig frame in one chunked ship, or a requeue retry of a
// previously failed one): the stream-level migrations_in counter is
// bumped only on the first chunk, matching the sender's once-per-stream
// migrations_out count regardless of backlog size.
func (s *Server) IngestHandoff(tenant, key string, items [][]byte, cont bool) (IngestResult, error) {
	if !s.validKey(key) {
		return IngestResult{}, errors.New("bad stream key")
	}
	res, err := s.ingestLocal(protoMig, tenant, key, items)
	if err != nil {
		return res, err
	}
	s.migratedInItems.Add(uint64(res.Accepted))
	if !cont {
		s.migrationsIn.Add(1)
	}
	s.shedMigrate.Add(uint64(res.Shed))
	s.quarantinedMigrate.Add(uint64(res.Quarantined))
	return res, nil
}

// DetachStream quiesce-drains the key's pair for migration to another
// node: the pair is closed without running its handler and every
// unprocessed item is returned in FIFO order (repro.Pair.Handoff),
// along with the tenant id the stream was bound to so the new owner
// charges the same budget. ok=false means this node does not host the
// stream. After Detach the key's next local ingest creates a fresh
// pair (or forwards, once the routing table points elsewhere). The
// items are views of the detached stream's arena, which nothing writes
// again: they stay valid for as long as the caller holds them.
func (s *Server) DetachStream(key string) (items [][]byte, tenantID string, ok bool) {
	s.mu.Lock()
	st, found := s.streams[key]
	if found {
		delete(s.streams, key)
	}
	s.mu.Unlock()
	if !found {
		return nil, "", false
	}
	st.mu.Lock()
	st.detached = true
	items, err := st.pair.Handoff()
	st.mu.Unlock()
	// Whatever the stream still held charged leaves this node's
	// buffers with the hand-off (or was already drained in the closed
	// race) — return it to the tenant pool either way.
	st.releaseCharged(int(st.charged.Load()))
	if err != nil {
		// Already closed (shutdown race): nothing to ship.
		return nil, "", false
	}
	s.migrationsOut.Add(1)
	s.migratedOutItems.Add(uint64(len(items)))
	s.cfg.Logf("pcd: detached stream %q (%d items to ship)", key, len(items))
	return items, st.tenantID, true
}

// StreamKeys lists the stream keys this node currently hosts.
func (s *Server) StreamKeys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.streams))
	for k := range s.streams {
		keys = append(keys, k)
	}
	return keys
}

// StreamLoads reports each hosted stream's observed ingest rate in
// items/s, smoothed over the window since the previous call (EWMA with
// the window as its time constant). The fleet placement controller
// feeds these to the packer.
func (s *Server) StreamLoads() map[string]float64 {
	s.mu.RLock()
	streams := make(map[string]*stream, len(s.streams))
	for k, st := range s.streams {
		streams[k] = st
	}
	s.mu.RUnlock()
	now := time.Now()
	loads := make(map[string]float64, len(streams))
	for k, st := range streams {
		in := st.pair.Stats().ItemsIn
		st.rateMu.Lock()
		if st.rateAt.IsZero() {
			st.rateAt, st.rateIn = now, in
		} else if dt := now.Sub(st.rateAt).Seconds(); dt > 0 {
			inst := float64(in-st.rateIn) / dt
			// Light smoothing so one quiet window does not zero a
			// stream's placement weight.
			st.rate = 0.5*st.rate + 0.5*inst
			st.rateAt, st.rateIn = now, in
		}
		loads[k] = st.rate
		st.rateMu.Unlock()
	}
	return loads
}

// streamMeta is the migration/rate bookkeeping side of a stream.
type streamMeta struct {
	mu       sync.RWMutex // guards pair use vs. DetachStream
	detached bool

	rateMu sync.Mutex
	rate   float64
	rateIn uint64
	rateAt time.Time
}
