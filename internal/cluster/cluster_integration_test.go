package cluster

// In-process multi-node harness: each "pcd" is a real runtime + server
// + cluster node on loopback. These are the subsystem's acceptance
// tests — conservation and FIFO across forwarding and live cross-node
// migration, and fleet consolidation onto one node at light load.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

// pcdNode is one in-process pcd: runtime, server, cluster node, and a
// recorder of every item its consumers processed, per stream, in order.
type pcdNode struct {
	id   string
	rt   *repro.Runtime
	srv  *server.Server
	node *Node

	mu  sync.Mutex
	got map[string][]string
}

func (p *pcdNode) record(key string, batch [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range batch {
		p.got[key] = append(p.got[key], string(b))
	}
}

func (p *pcdNode) items(key string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.got[key]...)
}

func (p *pcdNode) base() string { return "http://" + p.srv.Addr() }

// bootPCD assembles one node. Seeds name already-running peers; srvMut
// optionally tweaks the server config (e.g. per-pair options).
func bootPCD(t testing.TB, id string, seeds map[string]string, fleet *FleetConfig, srvMut ...func(*server.Config)) *pcdNode {
	t.Helper()
	p := &pcdNode{id: id, got: make(map[string][]string)}
	rt, err := repro.New(
		repro.WithSlotSize(2*time.Millisecond),
		repro.WithMaxLatency(10*time.Millisecond),
		repro.WithBuffer(4096),
		repro.WithMaxPairs(32),
	)
	if err != nil {
		t.Fatal(err)
	}
	p.rt = rt
	scfg := server.Config{
		Runtime: rt,
		HandlerFor: func(key string) func(batch [][]byte) {
			return func(batch [][]byte) { p.record(key, batch) }
		},
	}
	for _, mut := range srvMut {
		mut(&scfg)
	}
	srv, err := server.New(scfg)
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	p.srv = srv
	// Tests probe fast to converge fast. Benchmarks keep the default
	// period, so the heartbeats' own allocations stay out of per-item
	// figures.
	heartbeat := 15 * time.Millisecond
	if _, ok := t.(*testing.B); ok {
		heartbeat = 0
	}
	node, err := NewNode(Config{
		NodeID:         id,
		ListenAddr:     "127.0.0.1:0",
		Seeds:          seeds,
		HeartbeatEvery: heartbeat,
		Fleet:          fleet,
	}, srv)
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	p.node = node
	srv.SetRouter(node)
	if err := srv.Start(); err != nil {
		node.Close()
		rt.Close()
		t.Fatal(err)
	}
	node.SetHTTPAddr(srv.Addr())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		rt.Close()
	})
	return p
}

// post sends newline-joined items and returns the accepted count.
func post(t *testing.T, base, stream string, items []string, redirect bool) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest/"+stream,
		strings.NewReader(strings.Join(items, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if redirect {
		req.Header.Set("X-Pcd-Redirect", "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r struct {
		Accepted int `json:"accepted"`
		Shed     int `json:"shed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	if r.Shed != 0 {
		t.Fatalf("unexpected shed: %d (stream %s)", r.Shed, stream)
	}
	return r.Accepted
}

// scrapeCluster fetches the /statusz cluster section.
func scrapeCluster(t *testing.T, base string) (server.ClusterStatus, []string) {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var st struct {
		Cluster *struct {
			server.ClusterStatus
			OwnedStreams []string `json:"owned_streams"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statusz: %v", err)
	}
	if st.Cluster == nil {
		t.Fatal("statusz has no cluster section")
	}
	return st.Cluster.ClusterStatus, st.Cluster.OwnedStreams
}

// waitConverged blocks until every node sees the full member set.
func waitConverged(t testing.TB, nodes ...*pcdNode) {
	t.Helper()
	waitFor(t, "cluster membership convergence", func() bool {
		for _, p := range nodes {
			if len(p.node.router.Members()) != len(nodes) {
				return false
			}
		}
		return true
	})
}

// waitDrained blocks until each node's conservation ledger balances:
// ItemsIn == ItemsOut + ItemsDropped + HandedOff, stable.
func waitDrained(t *testing.T, nodes ...*pcdNode) {
	t.Helper()
	waitFor(t, "conservation ledgers to balance", func() bool {
		for _, p := range nodes {
			st := p.rt.Stats()
			if st.ItemsIn != st.ItemsOut+st.ItemsDropped+st.HandedOff {
				return false
			}
		}
		return true
	})
}

// checkFleetLedger verifies the fleet-level conservation identity:
// every item the cluster accepted was either consumed or dropped
// exactly once — Σ(ItemsOut+Dropped) == accepted + Σ re-ingested
// hand-offs − Σ handed off. (A migrated item is counted in two nodes'
// ItemsIn; HandedOff cancels the double count.)
func checkFleetLedger(t *testing.T, accepted int, nodes ...*pcdNode) {
	t.Helper()
	var in, out, dropped, handed uint64
	for _, p := range nodes {
		st := p.rt.Stats()
		in += st.ItemsIn
		out += st.ItemsOut
		dropped += st.ItemsDropped
		handed += st.HandedOff
	}
	if out+dropped != in-handed {
		t.Fatalf("fleet ledger: out %d + dropped %d != in %d - handedOff %d",
			out, dropped, in, handed)
	}
	if in-handed != uint64(accepted) {
		t.Fatalf("fleet ledger: in %d - handedOff %d != client accepted %d",
			in, handed, accepted)
	}
}

// checkFIFO asserts the per-stream item sequence — what the old owner
// consumed followed by what the new owner consumed — is the exact sent
// prefix order: no loss, no duplicate, no reorder.
func checkFIFO(t *testing.T, stream string, sent []string, order ...*pcdNode) {
	t.Helper()
	var got []string
	for _, p := range order {
		got = append(got, p.items(stream)...)
	}
	if len(got) != len(sent) {
		t.Fatalf("stream %s: consumed %d items, sent %d", stream, len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("stream %s: position %d got %q want %q (FIFO broken)",
				stream, i, got[i], sent[i])
		}
	}
}

// TestClusterForwardingConservation: two nodes, four streams, every
// post round-robins across both nodes with no redirect — half the
// traffic crosses the forwarding path. Conservation and FIFO must hold
// per stream regardless of entry node.
func TestClusterForwardingConservation(t *testing.T) {
	p1 := bootPCD(t, "n1", nil, nil)
	p2 := bootPCD(t, "n2", map[string]string{"n1": p1.node.Addr()}, nil)
	waitConverged(t, p1, p2)

	streams := []string{
		keyOwnedBy(p1.node.router, "n1"),
		keyOwnedBy(p1.node.router, "n2"),
		keyOwnedBy(p1.node.router, "n1") + "-x",
		keyOwnedBy(p1.node.router, "n2") + "-y",
	}
	bases := []string{p1.base(), p2.base()}
	sent := make(map[string][]string)
	accepted := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for si, stream := range streams {
		wg.Add(1)
		go func(si int, stream string) {
			defer wg.Done()
			var mine []string
			acc := 0
			for burst := 0; burst < 20; burst++ {
				var items []string
				for j := 0; j < 10; j++ {
					items = append(items, fmt.Sprintf("%s/%04d", stream, burst*10+j))
				}
				// Phase shift: streams alternate which node they enter.
				acc += post(t, bases[(si+burst)%2], stream, items, false)
				mine = append(mine, items...)
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			sent[stream] = mine
			accepted += acc
			mu.Unlock()
		}(si, stream)
	}
	wg.Wait()
	if accepted != 4*200 {
		t.Fatalf("accepted %d want %d", accepted, 4*200)
	}
	waitDrained(t, p1, p2)
	checkFleetLedger(t, accepted, p1, p2)
	for _, stream := range streams {
		// Sweeps may have re-homed a stream (suffixed keys hash where
		// they will); FIFO must hold across both nodes' consumption in
		// migration order — without a migration one side is empty.
		if len(p1.items(stream)) > 0 && len(p2.items(stream)) > 0 {
			o1, o2 := p1.node.router.Owner(stream), p2.node.router.Owner(stream)
			if o1 != o2 {
				t.Fatalf("stream %s: routers disagree (%s vs %s)", stream, o1, o2)
			}
			if o1 == "n2" {
				checkFIFO(t, stream, sent[stream], p1, p2)
			} else {
				checkFIFO(t, stream, sent[stream], p2, p1)
			}
			continue
		}
		checkFIFO(t, stream, sent[stream], p1, p2)
	}
	// Forwarding actually happened (half the posts entered the wrong
	// node).
	st1, _ := scrapeCluster(t, p1.base())
	st2, _ := scrapeCluster(t, p2.base())
	if st1.ForwardsOutItems+st2.ForwardsOutItems == 0 {
		t.Fatal("no items crossed the forwarding path")
	}
	if st1.ForwardsInItems+st2.ForwardsInItems == 0 {
		t.Fatal("no items landed via the forwarding path")
	}
}

// TestClusterMigrationMidBurst forces a live cross-node migration in
// the middle of a single-writer burst: the stream's items must arrive
// at consumers in exact send order — old owner's prefix, then new
// owner's suffix — with the ledger balanced.
func TestClusterMigrationMidBurst(t *testing.T) {
	// A lazy drain cadence on n1 keeps a real backlog buffered, so the
	// forced detach ships retained items (not just the stream identity).
	slow := func(cfg *server.Config) {
		cfg.PairOptions = func(key string) []repro.PairOption {
			return []repro.PairOption{repro.MaxLatency(300 * time.Millisecond)}
		}
	}
	p1 := bootPCD(t, "n1", nil, nil, slow)
	p2 := bootPCD(t, "n2", map[string]string{"n1": p1.node.Addr()}, nil)
	waitConverged(t, p1, p2)

	stream := keyOwnedBy(p1.node.router, "n1")
	var sent []string
	accepted := 0
	for burst := 0; burst < 30; burst++ {
		var items []string
		for j := 0; j < 20; j++ {
			items = append(items, fmt.Sprintf("%s/%04d", stream, burst*20+j))
		}
		accepted += post(t, p1.base(), stream, items, false)
		sent = append(sent, items...)
		if burst == 14 {
			// Force the migration mid-burst: publish an override moving
			// the stream to n2; the next sweep quiesce-drains the pair
			// and ships the backlog, and later posts forward behind it.
			p1.node.router.PublishOverrides(map[string]string{stream: "n2"})
		}
		time.Sleep(2 * time.Millisecond)
	}
	if accepted != 600 {
		t.Fatalf("accepted %d want 600", accepted)
	}
	waitFor(t, "forced migration to complete", func() bool {
		st, _ := scrapeCluster(t, p1.base())
		return st.MigrationsOut >= 1
	})
	waitDrained(t, p1, p2)
	checkFleetLedger(t, accepted, p1, p2)
	checkFIFO(t, stream, sent, p1, p2)
	if n2got := p2.items(stream); len(n2got) == 0 {
		t.Fatal("migration never moved consumption to n2")
	}
	st1, _ := scrapeCluster(t, p1.base())
	if st1.MigrationsOut < 1 || st1.MigratedItemsOut == 0 {
		t.Fatalf("migration counters: %+v", st1)
	}
	st2, _ := scrapeCluster(t, p2.base())
	if st2.MigrationsIn < 1 {
		t.Fatalf("target migration counters: %+v", st2)
	}
}

// TestClusterFleetPacksLightLoad is the acceptance demo: two nodes with
// the fleet controller on, light aggregate load — the fleet must pack
// every stream onto one node, the peer reports zero owned pairs, and
// ingest through either node keeps working (forward or redirect).
func TestClusterFleetPacksLightLoad(t *testing.T) {
	fleet := &FleetConfig{
		Interval:   50 * time.Millisecond,
		BudgetRate: 50000,
		TargetUtil: 0.9,
		MinDwell:   1,
	}
	p1 := bootPCD(t, "n1", nil, fleet)
	p2 := bootPCD(t, "n2", map[string]string{"n1": p1.node.Addr()}, fleet)
	waitConverged(t, p1, p2)

	// Seed four streams, entering via their natural hash owner so both
	// nodes start with pairs, at trickle rates.
	streams := []string{
		keyOwnedBy(p1.node.router, "n1"),
		keyOwnedBy(p1.node.router, "n2"),
		keyOwnedBy(p1.node.router, "n1") + "-b",
		keyOwnedBy(p1.node.router, "n2") + "-b",
	}
	accepted := 0
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, stream := range streams {
		wg.Add(1)
		go func(i int, stream string) {
			defer wg.Done()
			base := []string{p1.base(), p2.base()}[i%2]
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				items := []string{fmt.Sprintf("%s/%06d", stream, seq)}
				seq++
				acc := post(t, base, stream, items, false)
				mu.Lock()
				accepted += acc
				mu.Unlock()
				time.Sleep(10 * time.Millisecond)
			}
		}(i, stream)
	}

	// The fleet must converge: every stream hosted by one node, the
	// other node owning zero pairs while still accepting ingest.
	waitFor(t, "fleet to pack all streams onto one node", func() bool {
		k1, k2 := len(p1.srv.StreamKeys()), len(p2.srv.StreamKeys())
		return (k1 == len(streams) && k2 == 0) || (k1 == 0 && k2 == len(streams))
	})
	close(stop)
	wg.Wait()

	var packed, idle *pcdNode
	if len(p1.srv.StreamKeys()) > 0 {
		packed, idle = p1, p2
	} else {
		packed, idle = p2, p1
	}
	_, ownedIdle := scrapeCluster(t, idle.base())
	if len(ownedIdle) != 0 {
		t.Fatalf("idle node still reports owned streams: %v", ownedIdle)
	}
	_, ownedPacked := scrapeCluster(t, packed.base())
	if len(ownedPacked) != len(streams) {
		t.Fatalf("packed node owns %v want all of %v", ownedPacked, streams)
	}

	// Ingest through the idle node still works (forwarded), and a smart
	// client with X-Pcd-Redirect lands on the packed node directly.
	if acc := post(t, idle.base(), streams[0], []string{"tail-fwd"}, false); acc != 1 {
		t.Fatalf("forwarded tail ingest accepted %d", acc)
	}
	if acc := post(t, idle.base(), streams[1], []string{"tail-redir"}, true); acc != 1 {
		t.Fatalf("redirected tail ingest accepted %d", acc)
	}
	accepted += 2
	st, _ := scrapeCluster(t, idle.base())
	if st.Leader != "n1" {
		t.Fatalf("leader %q want n1", st.Leader)
	}

	waitDrained(t, p1, p2)
	checkFleetLedger(t, accepted, p1, p2)
	// The idle node's pairs were all handed off; its runtime holds none.
	if keys := idle.srv.StreamKeys(); len(keys) != 0 {
		t.Fatalf("idle node re-acquired streams: %v", keys)
	}
}

// BenchmarkForwardHop prices the forward hop between two in-process
// nodes: node A's Forward of 64 × 64 B items, node B's handleConn and
// IngestForwarded into the key's pair, and the ack back to A.
// allocs/item and B/item are process-wide, so B's drains and both
// nodes' heartbeats are in them; scripts/alloc_gate.sh holds the hop to
// no payload memory: B's stream copies each frame's payloads out of the
// connection's reused buffer into its arena.
func BenchmarkForwardHop(b *testing.B) {
	const n = 64
	discard := func(cfg *server.Config) { cfg.HandlerFor = nil }
	pa := bootPCD(b, "a", nil, nil, discard)
	pb := bootPCD(b, "b", map[string]string{"a": pa.node.Addr()}, nil, discard)
	waitConverged(b, pa, pb)
	key := keyOwnedBy(pa.node.router, "b")
	items := make([][]byte, n)
	for i := range items {
		items[i] = bytes.Repeat([]byte{byte(i)}, 64)
	}
	forward := func() {
		if res, err := pa.node.Forward("", key, items); err != nil || res.Accepted != n {
			b.Fatalf("forward: %+v, %v", res, err)
		}
	}
	forward() // dials the peer connection and opens B's pair untimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/item")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/item")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/item")
}
