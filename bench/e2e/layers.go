package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/tenant"
)

// Isolated replays: the workload's own batch shape pushed through one
// layer's public calls at a time, Torquati-style — few threads, one
// layer timed, the same inputs at every layer. They give the per-layer
// costs that the end-to-end spans cannot separate (the child cost
// inside server.ack).

// replayBatch is n stamped items like the generator's.
func replayBatch(n int) [][]byte {
	st := &genStream{}
	items := make([][]byte, n)
	for i := range items {
		items[i] = make([]byte, itemSize)
		copy(items[i][fillerOff:], filler)
		stampItems(items[i], 1, 0, st, nowNs())
	}
	return items
}

// genCost is client.gen_ns_per_item: process CPU per item while the
// workload's generator drives a null sink — a socket that answers a
// canned 200 (HTTP), swallows lines (TCP), or a Put that does nothing
// (library; the busy-waiting thread itself is taken out there, as it is
// from the workload's own CPU). It bounds the harness's share of
// cpu_us_per_item.
func genCost(w workload, seed int64, budget time.Duration) (float64, error) {
	g := newGen(w, newSpanClock(budget, 1), false)
	var wk *worker
	done := make(chan struct{})
	switch w.kind {
	case httpClosed, tcpOpen:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer ln.Close()
		st := &genStream{key: "null"}
		wk = g.addWorker([]*genStream{st})
		if w.kind == httpClosed {
			st.req, st.body = httpRequest(st.key, "", w.batch)
		} else {
			st.req, st.body = tcpLine(st.key)
			wk.rate = w.rate / float64(w.conns)
			wk.wbuf = make([]byte, 0, 1<<20)
		}
		go nullSink(ln, w, len(st.req), done)
		if err := wk.dial(ln.Addr().String()); err != nil {
			return 0, err
		}
	case libOpen:
		close(done)
		// One worker's share of the trace, into a Put that does nothing.
		var streams []*genStream
		for _, sh := range worldCupShards(w, seed, budget+time.Second) {
			streams = append(streams, &genStream{
				arrivals: sh.Arrivals,
				put:      func([]byte) error { return nil },
			})
		}
		wk = g.addWorker(deal(streams, 0, w.conns))
		wk.slab = newSlab()
	}
	wk.start = time.Now()
	cpu0 := cpuTime()
	g.run()
	time.Sleep(budget)
	var spin time.Duration
	if tid := wk.tid.Load(); tid != 0 {
		spin = threadCPU(int(tid)) - wk.spin0 // the replay thread's busy-wait, as in between
	}
	g.stop()
	cpu := cpuTime() - cpu0 - spin
	g.close()
	<-done
	if g.failedSends.Load() > 0 || g.sent.Load() == 0 {
		return 0, fmt.Errorf("null-sink generator run failed (%d sent, %d lost)", g.sent.Load(), g.failedSends.Load())
	}
	return float64(cpu) / float64(g.sent.Load()), nil
}

// nullSink serves one connection: for HTTP it reads reqLen bytes and
// answers a canned verdict admitting the whole batch; for TCP it
// discards what arrives.
func nullSink(ln net.Listener, w workload, reqLen int, done chan<- struct{}) {
	defer close(done)
	c, err := ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	if w.kind == tcpOpen {
		io.Copy(io.Discard, c)
		return
	}
	body := fmt.Sprintf(`{"stream":"null","accepted":%d,"shed":0,"quarantined":0}`+"\n", w.batch)
	resp := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	buf := make([]byte, reqLen)
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		if _, err := c.Write(resp); err != nil {
			return
		}
	}
}

// replays runs every isolated replay for the workload's batch shape and
// returns the per-layer values they yield.
func replays(w workload, seed int64, budget time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	batch := replayBatch(w.batch)
	n := float64(len(batch))

	gen, err := genCost(w, seed, 4*budget)
	if err != nil {
		return nil, err
	}
	m["client.gen_ns_per_item"] = gen
	if m["client.sdk_ns_per_item"], err = sdkCost(w, batch, 2*budget); err != nil {
		return nil, err
	}

	// tenant: the workload's registry shape, walls far away so the
	// admit path is the one a non-binding run takes.
	reg, err := tenant.NewRegistry(tenant.File{Tenants: []tenant.Spec{
		{ID: "t0", Keys: []string{"replay-key"}, Rate: 1e12, Burst: 1e12, Buffer: 1 << 24},
	}})
	if err != nil {
		return nil, err
	}
	tn := reg.Authorize("replay-key")
	m["tenant.authorize_ns"] = timeLoop(budget, func() { reg.Authorize("replay-key") })
	m["tenant.admit_rate_ns_per_item"] = timeLoop(budget, func() { tn.AdmitRate(len(batch)) }) / n
	m["tenant.buffer_acquire_release_ns_per_item"] = timeLoop(budget, func() {
		tn.ReleaseBuffer(tn.AcquireBuffer(len(batch)))
	}) / n

	// cluster: the wire codec on its own, then the whole hop.
	encode := func() ([]byte, error) {
		return cluster.EncodeFrame(cluster.Frame{Type: cluster.FrameForward, From: "a", Key: "replay", Items: cluster.EncodeItems(batch)})
	}
	line, err := encode()
	if err != nil {
		return nil, err
	}
	m["cluster.wire_bytes_per_item"] = float64(len(line)) / n
	m["cluster.encode_ns_per_item"] = timeLoop(budget, func() { encode() }) / n
	m["cluster.decode_ns_per_item"] = timeLoop(budget, func() {
		if f, err := cluster.DecodeFrame(line); err == nil {
			cluster.DecodeItems(f.Items)
		}
	}) / n
	if err := forwardReplay(w, seed, batch, 2*budget, m); err != nil {
		return nil, err
	}

	if err := putReplay(batch, budget, m); err != nil {
		return nil, err
	}
	ringReplay(batch, budget, m)

	h := obs.NewHistogram()
	v := int64(0)
	m["obs.hist_record_ns"] = timeLoop(budget, func() {
		for i := 0; i < 64; i++ {
			v += 7919
			h.Record(v & 0xfffffff)
		}
	}) / 64
	return m, nil
}

// replayNode is an open HTTP node for w's streams with room for a
// replay's closed loop at full speed.
func replayNode(w workload, id string, clustered bool, seeds map[string]string) (*node, error) {
	w.kind, w.b0, w.floor = httpClosed, 32768, 32768
	return bootNode(w, newSpanClock(time.Second, 1), false, id, nil, clustered, seeds)
}

// sdkCost is client.sdk_ns_per_item: process CPU per item when the
// public SDK drives a server with the workload's batches — what a real
// producer pays, against which the raw generator is cheap.
func sdkCost(w workload, batch [][]byte, budget time.Duration) (float64, error) {
	n, err := replayNode(w, "sdk", false, nil)
	if err != nil {
		return 0, err
	}
	defer n.close()
	c, err := client.New(client.Config{Targets: []string{"http://" + n.srv.Addr()}})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.PutBatch(ctx, "sdk", batch); err != nil {
		return 0, err
	}
	items := 0
	cpu0, t0 := cpuTime(), time.Now()
	for time.Since(t0) < budget {
		if _, err := c.PutBatch(ctx, "sdk", batch); err != nil {
			return 0, err
		}
		items += len(batch)
	}
	return float64(cpuTime()-cpu0) / float64(items), nil
}

// forwardReplay times direct Node.Forward calls across a two-node
// fleet: the fwd wire's round trip with nothing else on it.
func forwardReplay(w workload, seed int64, batch [][]byte, budget time.Duration, m map[string]float64) error {
	a, err := replayNode(w, "a", true, nil)
	if err != nil {
		return err
	}
	defer a.close()
	b, err := replayNode(w, "b", true, map[string]string{"a": a.cn.Addr()})
	if err != nil {
		return err
	}
	defer b.close()
	fleet := &stack{nodes: []*node{a, b}}
	if err := fleet.converge(); err != nil {
		return fmt.Errorf("replay fleet: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	var keys []string
	for len(keys) < w.streams {
		key := fmt.Sprintf("r%02d-%08x", len(keys), rng.Uint32())
		if a.cn.Resolve(key).Owner == "b" {
			keys = append(keys, key)
		}
	}
	m["cluster.resolve_ns"] = timeLoop(budget/4, func() { a.cn.Resolve(keys[0]) })

	var rtt latHist
	items, i := 0, 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		c0 := time.Now()
		if _, err := a.cn.Forward("", keys[i%len(keys)], batch); err != nil {
			return fmt.Errorf("replay forward: %w", err)
		}
		rtt.record(int64(time.Since(c0)))
		items += len(batch)
		i++
	}
	m["cluster.forward_rtt_p50_ms"] = rtt.ms(0.50)
	m["cluster.forward_rtt_p99_ms"] = rtt.ms(0.99)
	m["cluster.forward_items_per_s"] = float64(items) / time.Since(t0).Seconds()
	return nil
}

// putReplay times the two enqueue paths: Put on a ConcurrentProducers
// pair (what pcd opens) and PutBatch on the default single-producer
// pair. Only the Put calls are timed; each burst is flushed and drained
// before the next so no Put ever meets a full buffer. budget bounds each
// path's wall time, most of which is the waiting in between.
func putReplay(batch [][]byte, budget time.Duration, m map[string]float64) error {
	const b0, burst = 1 << 15, 1 << 13
	rt, err := repro.New(
		repro.WithManagers(managers), repro.WithSlotSize(slotSize),
		repro.WithMaxLatency(maxLatency), repro.WithBuffer(b0), repro.WithMaxPairs(2),
	)
	if err != nil {
		return err
	}
	defer rt.Close()
	discard := repro.Batch(func([][]byte) {})
	mp, err := repro.Open(rt, discard, repro.ConcurrentProducers())
	if err != nil {
		return err
	}
	sp, err := repro.Open(rt, discard)
	if err != nil {
		return err
	}
	drained := func(p *repro.Pair[[]byte]) error {
		if err := p.Flush(); err != nil {
			return err
		}
		return waitFor(time.Second, func() bool { return p.Len() == 0 })
	}

	var spent time.Duration
	items := 0
	m0, _ := allocated()
	for wall := time.Now(); time.Since(wall) < budget; {
		t0 := time.Now()
		for i := 0; i < burst; i++ {
			if err := mp.Put(batch[i%len(batch)]); err != nil {
				return fmt.Errorf("replay Put: %w", err)
			}
		}
		spent += time.Since(t0)
		items += burst
		if err := drained(mp); err != nil {
			return fmt.Errorf("replay drain: %w", err)
		}
	}
	m["repro.put_ns_per_item"] = float64(spent) / float64(items)
	m1, _ := allocated()
	m["repro.put_allocs_per_item"] = float64(m1-m0) / float64(items)

	spent, items = 0, 0
	for wall := time.Now(); time.Since(wall) < budget; {
		t0 := time.Now()
		for sent := 0; sent < burst; sent += len(batch) {
			if _, err := sp.PutBatch(batch); err != nil {
				return fmt.Errorf("replay PutBatch: %w", err)
			}
			items += len(batch)
		}
		spent += time.Since(t0)
		if err := drained(sp); err != nil {
			return fmt.Errorf("replay drain: %w", err)
		}
	}
	m["repro.putbatch_ns_per_item"] = float64(spent) / float64(items)
	return nil
}

// ringReplay times one push and one pop per item on each queue of
// internal/ring, uncontended, in batches of the workload's size.
func ringReplay(batch [][]byte, budget time.Duration, m map[string]float64) {
	n := float64(len(batch))
	out := make([][]byte, 0, len(batch))
	pool := func() *ring.SegmentPool[[]byte] { return ring.NewSegmentPool[[]byte](len(batch)/16+4, 16) }

	spsc := ring.NewSPSC[[]byte](2 * len(batch))
	m["ring.spsc_ns_per_item"] = timeLoop(budget, func() {
		for _, it := range batch {
			spsc.Push(it)
		}
		for range batch {
			spsc.Pop()
		}
	}) / n
	m["ring.pushbatch_ns_per_item"] = timeLoop(budget, func() {
		spsc.PushBatch(batch)
		spsc.PopBatch(out[:len(batch)])
	}) / n

	unb := ring.NewUnbounded(pool(), 2*len(batch))
	m["ring.unbounded_ns_per_item"] = timeLoop(budget, func() {
		for _, it := range batch {
			unb.Push(it)
		}
		out = unb.DrainTo(out[:0])
	}) / n

	seg := ring.NewSegmented(pool(), 2*len(batch))
	m["ring.segmented_mp_ns_per_item"] = timeLoop(budget, func() {
		for _, it := range batch {
			seg.Push(it)
		}
		out = seg.DrainTo(out[:0])
	}) / n
}
