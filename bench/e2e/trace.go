package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runPerLayer is --trace 1: half the span untraced (the reference for
// the tracing overhead), half with WithHistograms+WithTimeline on and
// the harness recording spans around its calls into each layer, then
// the isolated replays.
func runPerLayer(w workload, seed int64, measure time.Duration, quick bool, outDir string) (*result, error) {
	base, err := runPhase(w, seed, measure/2, false)
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(w, seed, measure/2, true)
	if err != nil {
		return nil, err
	}
	budget := 250 * time.Millisecond
	if quick {
		budget = 20 * time.Millisecond
	}
	m, err := replays(w, seed, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.Name, err)
	}

	all := traced.measured()
	g := traced.stack.gen
	m["items_per_s"] = base.windowMedian(itemsPerS)
	m["cpu_us_per_item"] = base.windowMedian(cpuUsPerItem)
	m["cpu_user_us_per_item"] = base.windowMedian(userUsPerItem)
	m["failed_share"] = ratio(float64(base.failed+traced.failed), float64(base.attempted+traced.attempted))
	m["wakeups_per_kitem"] = base.windowMedian(wakeupsPerKitem)
	m["boot_cold_ms"] = base.stack.setupS * 1e3
	m["client.send_lag_p99_ms"] = base.stack.gen.lagHist().ms(0.99)

	ack := g.ackHist()
	m["server.ack_p50_ms"] = ack.ms(0.50)
	m["server.ack_p99_ms"] = ack.ms(0.99)
	m["server.requests_per_s"] = ratio(all.requests, all.secs)
	var ackNs, ackItems int64
	for _, wk := range g.workers {
		ackNs += wk.ackNs
		ackItems += wk.ackItems
	}
	// What the ack span holds that the isolated layers do not explain:
	// read, split, stream lookup, response — and loopback itself.
	self := ratio(float64(ackNs), float64(ackItems))
	if self > 0 {
		self -= m["repro.put_ns_per_item"]
		if w.tenants > 0 {
			self -= m["tenant.admit_rate_ns_per_item"] + m["tenant.buffer_acquire_release_ns_per_item"]
		}
		if w.cluster {
			self -= 1e9 / m["cluster.forward_items_per_s"]
		}
	}
	m["server.self_ns_per_item"] = self
	shed := float64(g.shed.Load())
	if w.kind == tcpOpen {
		shed = float64(traced.status[0].ShedTCP)
	}
	m["server.shed_share"] = ratio(shed, float64(g.sent.Load()))
	m["server.tcp_malformed"] = float64(traced.malformed)
	var opens []float64
	for _, st := range traced.stack.streams {
		opens = append(opens, st.openMs)
	}
	m["server.stream_open_ms"] = median(opens)
	m["server.statusz_ms"] = median(traced.scrapes.statuszMs)
	m["server.metrics_scrape_ms"] = median(traced.scrapes.metricsMs)
	m["server.shutdown_drain_ms"] = traced.stack.shutdownMs

	m["tenant.shed_rate_share"] = 0
	if t := traced.tenants; t != nil {
		var shedRate, total float64
		for _, tn := range t.Tenants {
			shedRate += float64(tn.ShedRate)
			total += float64(tn.Accepted + tn.ShedRate + tn.ShedBuffer)
		}
		m["tenant.shed_rate_share"] = ratio(shedRate, total)
	}
	m["cluster.forward_fallbacks"], m["cluster.forward_indoubt_items"] = 0, 0
	if w.cluster {
		if c := traced.status[0].Cluster; c != nil {
			m["cluster.forward_fallbacks"] = float64(c.ForwardFallbacks)
			m["cluster.forward_indoubt_items"] = float64(c.ForwardInDoubtItems)
		}
	}

	own := traced.sinks[len(traced.sinks)-1]
	m["repro.wait_p50_ms"] = float64(traced.wait.P50) / 1e6
	m["repro.wait_p99_ms"] = float64(traced.wait.P99) / 1e6
	m["repro.drain_p50_us"] = float64(traced.drain.P50) / 1e3
	m["repro.drain_p99_us"] = float64(traced.drain.P99) / 1e3
	m["repro.handler_ns_per_item"] = ratio(float64(own.handlerNs), float64(own.delivered))
	m["repro.timer_wakes"] = all.timerWakes
	m["repro.forced_wakes"] = all.forcedWakes
	m["repro.invocations"] = all.invocations
	m["repro.items_per_wakeup"] = ratio(all.itemsOut, all.wakes)
	m["repro.overflows"] = all.overflows
	m["repro.wakeups_per_kitem"] = ratio(all.wakes*1000, all.itemsOut)
	m["power.est_mw"] = all.totalMW
	m["power.extra_mw"] = all.extraMW

	cpu0, cpu1 := base.windowMedian(cpuUsPerItem), traced.windowMedian(cpuUsPerItem)
	m["obs.trace_overhead_share"] = ratio(cpu1-cpu0, cpu0)

	r, err := newResult(w, perLayer, m, base, traced)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := writeTrace(path, seed, traced); err != nil {
		return nil, fmt.Errorf("%s: trace file: %w", w.Name, err)
	}
	r.notes = append(traced.notes(), "trace written to "+path)
	return r, nil
}

// generatorBound marks an open-loop phase whose generator ran late.
func (p *phase) generatorBound() bool {
	return p.stack.w.kind != httpClosed && p.stack.gen.lagHist().ms(0.99) > generatorBoundMs
}

// notes are the human-readable lines that go with a phase's numbers:
// sample counts behind the percentiles, and the generator's honesty.
func (p *phase) notes() []string {
	g := p.stack.gen
	n := []string{
		fmt.Sprintf("not gated: items_per_s %.6g, cpu_us_per_item %.4g (user %.4g), wakeups_per_kitem %.4g",
			p.windowMedian(itemsPerS), p.windowMedian(cpuUsPerItem), p.windowMedian(userUsPerItem), p.windowMedian(wakeupsPerKitem)),
		fmt.Sprintf("deliver latency over %d samples in %d windows", p.sinks[len(p.sinks)-1].lat.samples(), p.stack.clock.n),
	}
	if p.stack.w.kind == httpClosed {
		return append(n, fmt.Sprintf("server.ack over %d requests", g.ackHist().n))
	}
	lag := g.lagHist()
	verdict := "offered load held"
	if p.generatorBound() {
		verdict = "generator_bound"
	}
	return append(n, fmt.Sprintf("client.send_lag_p99_ms %.3f over %d sends — %s", lag.ms(0.99), lag.samples(), verdict))
}

// ---- trace file ----

// span is one record of the trace file. Spans of one batch share id —
// "<stream key>:<first seq>" — and parent names the span that caused
// this one.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Items   int    `json:"items"`
}

// spanSummary aggregates every span of one name, in the file or not.
type spanSummary struct {
	Count   uint64  `json:"count"`
	TotalMs float64 `json:"total_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	hist    latHist
}

// maxFileBatches caps the batches whose spans are written out; the
// summary still covers all of them.
const maxFileBatches = 4000

var spanChain = []string{"gen.batch", "server.ack", "repro.wait", "repro.handler"}

// writeTrace joins the generator's batch records with the handler calls
// that consumed them and writes spans, per-span summaries and the
// boundary counts to path.
func writeTrace(path string, seed int64, p *phase) error {
	sink := p.stack.owner().sink
	calls := make([][]handlerCall, len(p.stack.streams))
	for _, st := range p.stack.streams {
		calls[st.idx] = sink.stream(st.key).calls
	}
	sums := make(map[string]*spanSummary, len(spanChain))
	for _, name := range spanChain {
		sums[name] = &spanSummary{}
	}
	var spans []span
	batches := 0
	for _, wk := range p.stack.gen.workers {
		for _, gs := range wk.spans {
			cs := calls[gs.stream]
			i := sort.Search(len(cs), func(i int) bool { return cs[i].lastSeq >= gs.firstSeq })
			if i == len(cs) {
				continue // sent after the last delivery was recorded
			}
			call := cs[i]
			waitStart := gs.ackEnd
			if call.start < waitStart {
				waitStart = call.start // drained before the ack came back
			}
			id := fmt.Sprintf("%s:%d", p.stack.streams[gs.stream].key, gs.firstSeq)
			chain := [4]span{
				{"gen.batch", id, "", gs.genStart, gs.writeStart, int(gs.n)},
				{"server.ack", id, "gen.batch", gs.writeStart, gs.ackEnd, int(gs.n)},
				{"repro.wait", id, "server.ack", waitStart, call.start, int(gs.n)},
				{"repro.handler", id, "repro.wait", call.start, call.end, int(call.lastSeq - call.firstSeq + 1)},
			}
			for _, sp := range chain {
				d := sp.EndNs - sp.StartNs
				s := sums[sp.Name]
				s.Count++
				s.TotalMs += float64(d) / 1e6
				s.hist.record(d)
			}
			if batches < maxFileBatches {
				spans = append(spans, chain[:]...)
			}
			batches++
		}
	}
	for _, s := range sums {
		s.P50Ms, s.P99Ms = s.hist.ms(0.50), s.hist.ms(0.99)
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{
		"workload":        p.stack.w.Name,
		"seed":            seed,
		"batches_traced":  batches,
		"batches_in_file": len(spans) / len(spanChain),
		"summary":         sums,
		"counts":          p.counts,
		"timeline":        p.stack.owner().rt.TimelineDump(),
		"spans":           spans,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
