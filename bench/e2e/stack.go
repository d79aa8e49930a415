package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// node is one in-process pcd: runtime, server, optional cluster
// presence, and the sink its handlers feed.
type node struct {
	id   string
	rt   *repro.Runtime
	srv  *server.Server
	cn   *cluster.Node
	sink *sink
}

// stack is the system under test, booted through public APIs only, plus
// the generator wired to it. nodes[0] is where traffic enters; on
// cluster_forward nodes[1] owns every key.
type stack struct {
	w       workload
	traced  bool
	clock   *spanClock
	nodes   []*node
	reg     *tenant.Registry
	apiKeys []string
	streams []*genStream
	pairs   []*repro.Pair[[]byte] // library workload only
	gen     *gen

	bootAt     time.Time // set-up clock start: after input generation
	setupS     float64   // one boot: bootAt → every stream opened and acked once
	shutdownMs float64
	closed     bool
}

func (s *stack) entry() *node { return s.nodes[0] }

// owner is the node whose handlers receive the items.
func (s *stack) owner() *node { return s.nodes[len(s.nodes)-1] }

func newRuntime(w workload, traced bool) (*repro.Runtime, error) {
	opts := []repro.Option{
		repro.WithManagers(managers),
		repro.WithSlotSize(slotSize),
		repro.WithMaxLatency(maxLatency),
		repro.WithBuffer(w.b0),
		repro.WithMaxPairs(w.streams),
	}
	if w.floor > 0 {
		opts = append(opts, repro.WithMinQuota(w.floor))
	}
	if traced {
		opts = append(opts, repro.WithHistograms(), repro.WithTimeline(repro.TimelineDefaultCap))
	}
	return repro.New(opts...)
}

// bootNode starts one runtime+server pair; seeds non-nil joins a fleet.
func bootNode(w workload, clock *spanClock, traced bool, id string, reg *tenant.Registry, clustered bool, seeds map[string]string) (*node, error) {
	rt, err := newRuntime(w, traced)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, rt: rt, sink: newSink(clock, traced)}
	cfg := server.Config{Runtime: rt, HandlerFor: n.sink.handlerFor, Tenants: reg}
	if w.kind == tcpOpen {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	if n.srv, err = server.New(cfg); err != nil {
		rt.Close()
		return nil, err
	}
	if clustered {
		n.cn, err = cluster.NewNode(cluster.Config{
			NodeID:         id,
			ListenAddr:     "127.0.0.1:0",
			Seeds:          seeds,
			HeartbeatEvery: 100 * time.Millisecond,
		}, n.srv)
		if err != nil {
			rt.Close()
			return nil, err
		}
		n.srv.SetRouter(n.cn)
	}
	if err = n.srv.Start(); err != nil {
		n.close()
		return nil, err
	}
	if n.cn != nil {
		n.cn.SetHTTPAddr(n.srv.Addr())
	}
	return n, nil
}

// close tears one node down drain-first and returns how long the
// server's drain took.
func (n *node) close() time.Duration {
	if n.cn != nil {
		n.cn.Close()
	}
	var drain time.Duration
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		t0 := time.Now()
		n.srv.Shutdown(ctx)
		drain = time.Since(t0)
		cancel()
	}
	n.rt.Close()
	return drain
}

// boot builds the workload's stack from the seed: stream and API keys,
// the fleet, the World-Cup trace. It returns with every stream opened
// and acknowledged once and the generator ready to run for a warm-up
// and a measured span of measure. It starts from a collected heap, so
// that a boot does not pay for the garbage of the stack closed before it.
func boot(w workload, seed int64, traced bool, measure time.Duration) (s *stack, err error) {
	rng := rand.New(rand.NewSource(seed))
	clock := newSpanClock(measure, windowsIn(measure))
	runtime.GC()
	s = &stack{w: w, traced: traced, clock: clock, gen: newGen(w, clock, traced), bootAt: time.Now()}
	defer func() {
		if err != nil {
			s.close()
		}
		s.setupS = time.Since(s.bootAt).Seconds()
	}()

	if w.tenants > 0 {
		f := tenant.File{}
		for i := 0; i < w.tenants; i++ {
			key := fmt.Sprintf("key-%d-%016x", i, rng.Uint64())
			s.apiKeys = append(s.apiKeys, key)
			// Non-binding walls: each tenant offers rate/tenants.
			f.Tenants = append(f.Tenants, tenant.Spec{
				ID: "t" + strconv.Itoa(i), Keys: []string{key},
				Rate: 8 * w.rate, Burst: 8 * w.rate, Buffer: w.b0 * w.streams,
			})
		}
		if s.reg, err = tenant.NewRegistry(f); err != nil {
			return s, err
		}
	}

	if w.kind == libOpen {
		return s, s.bootLib(seed, warmup(measure)+measure+time.Second)
	}

	var a, b *node
	if a, err = bootNode(w, clock, traced, "a", s.reg, w.cluster, nil); err != nil {
		return s, err
	}
	s.nodes = append(s.nodes, a)
	if w.cluster {
		if b, err = bootNode(w, clock, traced, "b", s.reg, true, map[string]string{"a": a.cn.Addr()}); err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, b)
		if err = s.converge(); err != nil {
			return s, err
		}
	}

	// Stream keys; on a fleet only keys the far node owns.
	for len(s.streams) < w.streams {
		key := fmt.Sprintf("s%02d-%08x", len(s.streams), rng.Uint32())
		if w.cluster && a.cn.Resolve(key).Owner != "b" {
			continue
		}
		s.streams = append(s.streams, &genStream{idx: len(s.streams), key: key})
	}

	for c := 0; c < w.conns; c++ {
		own := deal(s.streams, c, w.conns)
		wk := s.gen.addWorker(own)
		apiKey := ""
		if len(s.apiKeys) > 0 {
			apiKey = s.apiKeys[c%len(s.apiKeys)]
		}
		switch w.kind {
		case httpClosed:
			if err = wk.dial(a.srv.Addr()); err != nil {
				return s, err
			}
			if err = wk.httpOpen(apiKey); err != nil {
				return s, err
			}
			for _, st := range own {
				st.req, st.body = httpRequest(st.key, apiKey, w.batch)
			}
		case tcpOpen:
			if err = wk.dial(a.srv.TCPAddr()); err != nil {
				return s, err
			}
			for _, st := range own {
				st.req, st.body = tcpLine(st.key)
			}
			if err = wk.tcpOpen(apiKey); err != nil {
				return s, err
			}
			wk.rate = w.rate / float64(w.conns)
			wk.wbuf = make([]byte, 0, 1<<20)
		}
	}
	if w.kind == tcpOpen {
		err = s.linesAdmitted()
	}
	return s, err
}

// deal is worker c's share of the streams: every conns-th one, so each
// stream has exactly one producer.
func deal(streams []*genStream, c, conns int) []*genStream {
	var own []*genStream
	for i := c; i < len(streams); i += conns {
		own = append(own, streams[i])
	}
	return own
}

// holdCollector keeps the collector, and with it the scavenger, out of
// a series of timed set-ups; the returned func restores the setting.
func holdCollector() (restore func()) {
	old := debug.SetGCPercent(10000)
	return func() { debug.SetGCPercent(old) }
}

// linesAdmitted is the line protocol's stand-in for an ack, which it
// does not give: set-up is over once the runtime has taken every
// stream's first line. (Waiting for the first deliveries instead would
// put the planner's cold-start choice — next slot or latency bound, 10
// or 100 ms — into setup_s.)
func (s *stack) linesAdmitted() error {
	rt := s.owner().rt
	if err := waitFor(2*time.Second, func() bool { return rt.Stats().ItemsIn >= uint64(len(s.streams)) }); err != nil {
		return fmt.Errorf("%s: streams' first lines never admitted: %w", s.w.Name, err)
	}
	return nil
}

// bootLib opens the library workload's pairs directly on a runtime and
// deals the phase-shifted World-Cup trace out to the generator
// goroutines, each pair fed by exactly one.
func (s *stack) bootLib(seed int64, horizon time.Duration) error {
	w := s.w
	shards := worldCupShards(w, seed, horizon)

	runtime.GC()
	s.bootAt = time.Now() // trace generation is input, not set-up
	rt, err := newRuntime(w, s.traced)
	if err != nil {
		return err
	}
	n := &node{id: "lib", rt: rt, sink: newSink(s.clock, s.traced)}
	s.nodes = append(s.nodes, n)

	for i := 0; i < w.streams; i++ {
		key := "p" + strconv.Itoa(i)
		p, err := repro.Open(rt, repro.Batch(n.sink.handlerFor(key)))
		if err != nil {
			return err
		}
		s.pairs = append(s.pairs, p)
		s.streams = append(s.streams, &genStream{
			idx: i, key: key, arrivals: shards[i].Arrivals,
			put: func(item []byte) error { return p.PutWait(item, time.Second) },
		})
	}
	for c := 0; c < w.conns; c++ {
		own := deal(s.streams, c, w.conns)
		wk := s.gen.addWorker(own)
		wk.slab = newSlab()
		for _, st := range own {
			item := wk.slab[wk.slabN*itemSize : (wk.slabN+1)*itemSize]
			wk.slabN++
			stampItems(item, 1, 0, st, nowNs())
			s.gen.sent.Add(1)
			if err := st.put(item); err != nil {
				return fmt.Errorf("open pair %s: %w", st.key, err)
			}
			s.gen.accepted.Add(1)
		}
	}
	return nil
}

// worldCupShards is the paper's §VI input: one synthetic World-Cup
// trace (burst density scaled to the horizon as cmd/livebench does),
// phase-shifted once per pair. The rate function is the same on every
// run — the flash crowds sit where DefaultWorldCup's own seed puts
// them; the workload seed draws the arrivals from it.
func worldCupShards(w workload, seed int64, horizon time.Duration) []trace.Trace {
	dur := simtime.Duration(horizon)
	wc := trace.DefaultWorldCup(dur)
	wc.BaseRate = w.rate
	wc.Bursts = int(horizon.Seconds()) + 1
	wc.BurstPeak = 2 * w.rate
	return trace.Generate(trace.WorldCup(wc), dur, seed).PhaseShifts(w.streams)
}

// newSlab is a library generator's recycled item storage: 65536 items,
// fifty times what is in flight at the latency bound.
func newSlab() []byte {
	slab := make([]byte, itemSize<<16)
	for i := 0; i < len(slab); i += itemSize {
		copy(slab[i+fillerOff:], filler)
	}
	return slab
}

// converge waits until both nodes see each other alive, so routing is
// settled before any key is chosen.
func (s *stack) converge() error {
	return waitFor(5*time.Second, func() bool {
		for _, n := range s.nodes {
			peers := n.cn.Status().Peers
			if len(peers) != len(s.nodes)-1 {
				return false
			}
			for _, p := range peers {
				if p.State != "alive" {
					return false
				}
			}
		}
		return true
	})
}

func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// start releases the generator; open-loop schedules count from now.
func (s *stack) start() {
	now := time.Now()
	for _, wk := range s.gen.workers {
		wk.start = now
	}
	s.gen.run()
}

// close shuts the whole stack down drain-first. Idempotent.
func (s *stack) close() {
	if s.closed {
		return
	}
	s.closed = true
	s.gen.stop()
	s.gen.close()
	for _, p := range s.pairs {
		p.Close()
	}
	for _, n := range s.nodes {
		s.shutdownMs += float64(n.close()) / 1e6
	}
}

// ---- status scrapes ----

// statusDoc is the slice of /statusz the harness reads.
type statusDoc struct {
	IngestedTCP uint64 `json:"ingested_tcp"`
	ShedTCP     uint64 `json:"shed_tcp"`
	Cluster     *struct {
		ForwardFallbacks    uint64 `json:"forward_fallbacks"`
		ForwardInDoubtItems uint64 `json:"forward_indoubt_items"`
	} `json:"cluster"`
}

func (n *node) status() (statusDoc, error) {
	var d statusDoc
	b, err := n.srv.StatusJSON()
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// httpGet fetches path from the node's ops face and times it.
func (n *node) httpGet(path string) (body []byte, ms float64, err error) {
	t0 := time.Now()
	resp, err := http.Get("http://" + n.srv.Addr() + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, float64(time.Since(t0)) / 1e6, err
}

// promValue reads one unlabelled sample from a /metrics scrape.
func promValue(scrape []byte, name string) (float64, bool) {
	for _, line := range strings.Split(string(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}
