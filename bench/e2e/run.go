package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro"
	"repro/internal/power"
	"repro/internal/simtime"
	"repro/internal/tenant"
)

// estimator prices runtime counters the way pcd's /metrics gauge does.
var estimator = power.Estimator{
	Model:         power.Default(),
	Cores:         managers,
	OverheadMicro: 6.8,
	PerItemMicro:  1.7,
}

// boundary is every counter the harness reads at a window edge.
type boundary struct {
	at        time.Time
	delivered uint64
	userCPU   time.Duration
	cpu       time.Duration // user + system
	spinCPU   time.Duration // user + system of the busy-waiting replay thread, if any
	mallocs   uint64
	allocated uint64      // bytes
	stats     repro.Stats // summed over the stack's runtimes
	requests  uint64
}

func (s *stack) sample() boundary {
	b := boundary{
		at:       time.Now(),
		requests: s.gen.requests.Load(),
	}
	b.mallocs, b.allocated = allocated()
	b.userCPU, b.cpu = cpuTimes()
	for _, wk := range s.gen.workers {
		if tid := wk.tid.Load(); tid != 0 {
			b.spinCPU += threadCPU(int(tid))
		}
	}
	for _, n := range s.nodes {
		b.delivered += n.sink.delivered()
		st := n.rt.Stats()
		b.stats.TimerWakes += st.TimerWakes
		b.stats.ForcedWakes += st.ForcedWakes
		b.stats.Invocations += st.Invocations
		b.stats.ItemsOut += st.ItemsOut
		b.stats.Overflows += st.Overflows
	}
	return b
}

// window is the difference between two boundaries.
type window struct {
	secs                             float64
	delivered, userUs, cpuUs         float64
	mallocs, allocBytes              float64
	wakes, timerWakes, forcedWakes   float64
	invocations, itemsOut, overflows float64
	requests, extraMW, totalMW       float64
	extraUJ                          float64 // model energy above the idle floor, µJ
}

func between(a, b boundary) window {
	w := window{
		secs:        b.at.Sub(a.at).Seconds(),
		delivered:   float64(b.delivered - a.delivered),
		userUs:      float64(b.userCPU-a.userCPU) / 1e3,
		cpuUs:       float64(b.cpu-a.cpu) / 1e3,
		mallocs:     float64(b.mallocs - a.mallocs),
		allocBytes:  float64(b.allocated - a.allocated),
		timerWakes:  float64(b.stats.TimerWakes - a.stats.TimerWakes),
		forcedWakes: float64(b.stats.ForcedWakes - a.stats.ForcedWakes),
		invocations: float64(b.stats.Invocations - a.stats.Invocations),
		itemsOut:    float64(b.stats.ItemsOut - a.stats.ItemsOut),
		overflows:   float64(b.stats.Overflows - a.stats.Overflows),
		requests:    float64(b.requests - a.requests),
	}
	if b.spinCPU > 0 {
		// A busy-waiting replay thread uses one core less whatever the
		// host stole from it: its CPU is a steal gauge (43 to 82 µs per
		// item within a quarter of an hour) that buries the stack's 1 µs.
		// It is read from the thread's clock and taken out. What is left
		// is user and system together — at the 10 ms/s the other threads
		// use, getrusage's tick-sampled split is noise.
		w.cpuUs -= float64(b.spinCPU-a.spinCPU) / 1e3
		w.userUs = w.cpuUs
	}
	w.wakes = w.timerWakes + w.forcedWakes
	c := power.Counters{
		Wakeups:     uint64(w.wakes),
		Invocations: uint64(w.invocations),
		Items:       uint64(w.itemsOut),
	}
	elapsed := simtime.Duration(b.at.Sub(a.at))
	w.extraMW = estimator.ExtraPowerMilliwatts(c, elapsed)
	w.totalMW = estimator.AvgPowerMilliwatts(c, elapsed)
	// Energy is priced over the core-time the model's handler would
	// need for these counts. Where that exceeds the window (the closed
	// loops deliver faster than the model's 1.7 µs/item consumer could)
	// the estimator clamps busy time to the window, and energy per item
	// would turn into power ÷ rate — a throughput metric in disguise.
	busy := simtime.Duration((w.invocations*estimator.OverheadMicro + w.itemsOut*estimator.PerItemMicro) * float64(simtime.Microsecond))
	if busy > elapsed {
		elapsed = busy
	}
	w.extraUJ = estimator.ExtraPowerMilliwatts(c, elapsed) * elapsed.Seconds() * 1000
	return w
}

// phase is one boot → warm-up → measure → drain → check cycle.
type phase struct {
	stack *stack

	bounds   []boundary // one sample at each window edge of the measured span
	counts   []json.RawMessage
	scrapes  scrapeTimes
	sinks    []*sinkTotals // per node, read after close
	final    []repro.Stats // per node, after close
	status   []statusDoc   // per node, before close
	tenants  *tenant.RegistrySnapshot
	wait     repro.LatencyDist
	drain    repro.LatencyDist
	admitted uint64 // items the stack took responsibility for
	malformed,
	attempted, failed uint64
	violations []string // conservation, order or format broken
	missed     []string // a timing bound missed: generator behind, latency bound
}

// scrapeTimes holds the 1 Hz ops-face GETs of a traced run.
type scrapeTimes struct {
	statuszMs, metricsMs []float64
}

// warmup is the discarded full-load lead-in: a tenth of the measured
// span, between half a second and three.
func warmup(measure time.Duration) time.Duration {
	w := measure / 10
	if w < time.Second/2 {
		w = time.Second / 2
	}
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

func runPhase(w workload, seed int64, measure time.Duration, traced bool) (*phase, error) {
	s, err := boot(w, seed, traced, measure)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", w.Name, err)
	}
	return s.run(measure)
}

// run takes a booted stack through warm-up, the measured span, drain,
// shutdown and the oracle.
func (s *stack) run(measure time.Duration) (*phase, error) {
	defer s.close()
	w, traced := s.w, s.traced
	p := &phase{stack: s}

	s.start()
	time.Sleep(warmup(measure))

	stopScrapes := p.scrapeLoop()
	s.clock.begin()
	t0 := time.Now()
	p.observe()
	for i := 1; i <= s.clock.n; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(int64(i) * s.clock.winNs))))
		p.observe()
	}
	stopScrapes()
	s.gen.stop()

	p.settle()
	for _, n := range s.nodes {
		if n.srv == nil {
			continue
		}
		d, err := n.status()
		if err != nil {
			return nil, fmt.Errorf("%s: statusz: %w", w.Name, err)
		}
		p.status = append(p.status, d)
	}
	if w.kind == tcpOpen {
		scrape, _, err := s.entry().httpGet("/metrics")
		if err != nil {
			return nil, fmt.Errorf("%s: metrics: %w", w.Name, err)
		}
		v, _ := promValue(scrape, "pcd_tcp_malformed_total")
		p.malformed = uint64(v)
	}
	if s.reg != nil {
		snap := s.reg.Snapshot()
		p.tenants = &snap
	}

	s.close()
	for _, n := range s.nodes {
		p.sinks = append(p.sinks, n.sink.totals())
		p.final = append(p.final, n.rt.Stats())
	}
	if traced {
		own := s.owner().rt
		p.wait, _, _ = own.LatencyTotals()
		if ml := own.ManagerLatencies(); len(ml) > 0 {
			p.drain = ml[0].Drain
		}
	}
	p.check()
	return p, nil
}

// observe takes one boundary sample and, on a traced run, the layers'
// own counts at the same instant.
func (p *phase) observe() {
	p.bounds = append(p.bounds, p.stack.sample())
	if !p.stack.traced {
		return
	}
	type nodeCounts struct {
		Node    string                   `json:"node"`
		Runtime repro.Stats              `json:"runtime"`
		Server  json.RawMessage          `json:"server,omitempty"`
		Cluster any                      `json:"cluster,omitempty"`
		Tenants *tenant.RegistrySnapshot `json:"tenants,omitempty"`
	}
	var all []nodeCounts
	for _, n := range p.stack.nodes {
		c := nodeCounts{Node: n.id, Runtime: n.rt.Stats()}
		if n.srv != nil {
			c.Server, _ = n.srv.StatusJSON()
		}
		if n.cn != nil {
			c.Cluster = n.cn.Status()
		}
		if p.stack.reg != nil {
			snap := p.stack.reg.Snapshot()
			c.Tenants = &snap
		}
		all = append(all, c)
	}
	doc, _ := json.Marshal(map[string]any{"at_ns": nowNs(), "nodes": all})
	p.counts = append(p.counts, doc)
}

// scrapeLoop GETs /statusz and /metrics once a second while a traced
// run is under load, the way an operator's dashboard would.
func (p *phase) scrapeLoop() (stop func()) {
	n := p.stack.entry()
	if !p.stack.traced || n.srv == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			if _, ms, err := n.httpGet("/statusz"); err == nil {
				p.scrapes.statuszMs = append(p.scrapes.statuszMs, ms)
			}
			if _, ms, err := n.httpGet("/metrics"); err == nil {
				p.scrapes.metricsMs = append(p.scrapes.metricsMs, ms)
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit); <-done }
}

// settle waits, after the generator has stopped, until the stack has
// read everything that was sent and delivered everything it admitted.
func (p *phase) settle() {
	s, g := p.stack, p.stack.gen
	if p.stack.w.kind == tcpOpen {
		// The line protocol does not ack: ask the server what it took.
		waitFor(3*time.Second, func() bool {
			d, err := s.entry().status()
			p.admitted = d.IngestedTCP
			return err == nil && d.IngestedTCP+d.ShedTCP >= g.sent.Load()
		})
	} else {
		p.admitted = g.accepted.Load()
	}
	waitFor(3*time.Second, func() bool { return s.owner().sink.delivered() >= p.admitted })
}

// check is the correctness oracle, run after every phase.
func (p *phase) check() {
	s, g := p.stack, p.stack.gen
	fail := func(format string, args ...any) {
		p.violations = append(p.violations, p.stack.w.Name+": "+fmt.Sprintf(format, args...))
	}
	ownerSink := p.sinks[len(p.sinks)-1]
	if ownerSink.delivered != p.admitted {
		fail("handlers received %d items, stack admitted %d", ownerSink.delivered, p.admitted)
	}
	for i, n := range s.nodes {
		st, sk := p.final[i], p.sinks[i]
		if st.ItemsIn != st.ItemsOut+st.ItemsDropped+st.HandedOff {
			fail("node %s: ItemsIn %d != ItemsOut %d + ItemsDropped %d + HandedOff %d",
				n.id, st.ItemsIn, st.ItemsOut, st.ItemsDropped, st.HandedOff)
		}
		if st.ItemsOut != sk.delivered {
			fail("node %s: ItemsOut %d but handlers received %d", n.id, st.ItemsOut, sk.delivered)
		}
		if sk.fifoBreaks > 0 {
			fail("node %s: %d items arrived out of per-stream order", n.id, sk.fifoBreaks)
		}
		if sk.badStamps > 0 {
			fail("node %s: %d items with an unparsable seq/stamp", n.id, sk.badStamps)
		}
	}
	if p.stack.w.cluster {
		if d := p.sinks[0].delivered; d != 0 {
			fail("entry node delivered %d items it does not own", d)
		}
		if c := p.status[0].Cluster; c == nil {
			fail("entry node reports no cluster section")
		} else if c.ForwardFallbacks != 0 {
			fail("%d forwards fell back to local ingest", c.ForwardFallbacks)
		}
	}
	if p.malformed != 0 {
		fail("server counted %d malformed TCP lines", p.malformed)
	}
	if p.stack.w.kind != httpClosed {
		lag, p99 := g.lagHist().ms(0.99), ownerSink.lat.ms(0.99)
		miss := func(format string, args ...any) {
			p.missed = append(p.missed, p.stack.w.Name+": "+fmt.Sprintf(format, args...))
		}
		switch {
		case lag > generatorBehindMs:
			miss("generator fell behind: send lag p99 %.1f ms > %v ms, the offered load was not the workload's", lag, generatorBehindMs)
		case lag > generatorBoundMs:
			// Marked generator_bound: its latencies are the generator's
			// as much as the stack's, so the bound is not judged on them.
		case p99 > deliverLimitMs+lag:
			// Items are stamped when due, so what the generator ran late
			// is in their latency; it is not the stack's to answer for.
			miss("deliver p99 %.1f ms, less %.1f ms of send lag, breaks the %v ms bound", p99, lag, deliverLimitMs)
		}
	}
	p.attempted = g.sent.Load()
	p.failed = p.attempted - ownerSink.delivered
}

const (
	// generatorBoundMs: an open-loop run whose generator ran later than
	// this at p99 is marked generator_bound — its latencies describe the
	// generator as much as the stack. On a shared two-core sandbox a
	// slow minute of the host is enough for that, so the mark alone
	// does not fail the run.
	generatorBoundMs = 10.0
	// generatorBehindMs: later than the latency bound itself, the run
	// did not offer the workload's load (pcload's silent failure) and
	// fails.
	generatorBehindMs = 100.0
	// deliverLimitMs is MaxLatency plus one slot: the §IV bound.
	deliverLimitMs = 110.0
)

// measured is the whole measured span as one window.
func (p *phase) measured() window { return between(p.bounds[0], p.bounds[len(p.bounds)-1]) }

// windowMedian is the median over the measured windows of f.
func (p *phase) windowMedian(f func(window) float64) float64 {
	var v []float64
	for i := 1; i < len(p.bounds); i++ {
		v = append(v, f(between(p.bounds[i-1], p.bounds[i])))
	}
	return median(v)
}

func itemsPerS(w window) float64 { return ratio(w.delivered, w.secs) }

func wakeupsPerKitem(w window) float64 { return ratio(w.wakes*1000, w.itemsOut) }

func cpuUsPerItem(w window) float64 { return ratio(w.cpuUs, w.delivered) }

func userUsPerItem(w window) float64 { return ratio(w.userUs, w.delivered) }

func allocsPerItem(w window) float64 { return ratio(w.mallocs, w.delivered) }

func allocBytesPerItem(w window) float64 { return ratio(w.allocBytes, w.delivered) }

// endToEndMetrics are the user-visible numbers of an untraced phase;
// setup_s is added by the caller, which sets up more than once.
func (p *phase) endToEndMetrics() map[string]float64 {
	lat := &p.sinks[len(p.sinks)-1].lat
	return map[string]float64{
		"allocs_per_item":      p.windowMedian(allocsPerItem),
		"alloc_bytes_per_item": p.windowMedian(allocBytesPerItem),
		"deliver_p50_ms":       lat.ms(0.50),
		"deliver_p99_ms":       lat.ms(0.99),
		"est_uj_per_item":      p.windowMedian(func(w window) float64 { return ratio(w.extraUJ, w.itemsOut) }),
		"peak_rss_mb":          peakRSSMB(),
	}
}
