package repro

// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B benchmark per artifact (DESIGN.md §4).
// Each iteration performs a full (scaled-down) experiment; the custom
// metrics reported per iteration are the figure's headline numbers, so
//
//	go test -bench=Fig -benchmem
//
// prints the reproduced results alongside the usual ns/op. The
// full-scale tables (paper-length runs, 3 replicates, confidence
// intervals) come from cmd/pcbench; these benches use the Quick
// configuration so the suite stays minutes, not hours.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/impls"
	"repro/internal/simtime"
)

func benchCfg() exp.Config {
	// 5 virtual seconds: long enough that cold-start transients do not
	// distort the figures, short enough for bench iterations.
	return exp.Config{
		Duration:   5 * simtime.Second,
		Replicates: 1,
		BaseSeed:   1998,
	}
}

// BenchmarkFig3 regenerates Figure 3: wakeups/s vs usage for the seven
// single-pair implementations.
func BenchmarkFig3(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue("mutex", exp.KeyWakeups), "mutex-wk/s")
	b.ReportMetric(last.MustValue("spbp", exp.KeyWakeups), "spbp-wk/s")
	b.ReportMetric(last.MustValue("bw", exp.KeyUsage), "bw-usage-ms/s")
}

// BenchmarkFig4 regenerates Figure 4: power for the seven
// implementations.
func BenchmarkFig4(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue("bw", exp.KeyPower), "bw-mW")
	b.ReportMetric(last.MustValue("mutex", exp.KeyPower), "mutex-mW")
	b.ReportMetric(last.MustValue("spbp", exp.KeyPower), "spbp-mW")
}

// BenchmarkCorrelations regenerates the §III-C correlation analysis.
func BenchmarkCorrelations(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Correlations(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue("idle-based-5", "r"), "pearson-r")
}

// BenchmarkFig9 regenerates Figure 9: the 5-consumer comparison.
func BenchmarkFig9(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue("mutex", exp.KeyPower), "mutex-mW")
	b.ReportMetric(last.MustValue("bp", exp.KeyPower), "bp-mW")
	b.ReportMetric(last.MustValue(core.Name, exp.KeyPower), "pbpl-mW")
	b.ReportMetric(last.MustValue(core.Name, exp.KeyWakeups), "pbpl-wk/s")
}

// BenchmarkFig10 regenerates Figure 10: the consumer-count sweep.
func BenchmarkFig10(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue(core.Name+" M=2", exp.KeyPower), "pbpl-M2-mW")
	b.ReportMetric(last.MustValue(core.Name+" M=10", exp.KeyPower), "pbpl-M10-mW")
	b.ReportMetric(last.MustValue("mutex M=10", exp.KeyPower), "mutex-M10-mW")
}

// BenchmarkFig11 regenerates Figure 11: the buffer-size sweep.
func BenchmarkFig11(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig11(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue("bp B=100", exp.KeyWakeups), "bp-B100-wk/s")
	b.ReportMetric(last.MustValue(core.Name+" B=100", exp.KeyWakeups), "pbpl-B100-wk/s")
}

// BenchmarkWakeupAccounting regenerates the §VI-C scheduled-vs-overflow
// counters (paper: 5160+1626 vs 9290; 82.5% conversion).
func BenchmarkWakeupAccounting(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.WakeupAccounting(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue(core.Name, exp.KeyScheduled), "pbpl-sched")
	b.ReportMetric(last.MustValue(core.Name, exp.KeyOverflows), "pbpl-ovf")
	b.ReportMetric(last.MustValue("bp", exp.KeyOverflows), "bp-ovf")
}

// BenchmarkBufferOccupancy regenerates the §VI-C average-buffer-size
// observation (paper: 43 of 50).
func BenchmarkBufferOccupancy(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.BufferOccupancy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue(core.Name, exp.KeyAvgBuffer), "avg-buffer")
}

// BenchmarkAblation regenerates the design-choice ablation table.
func BenchmarkAblation(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Ablation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue(core.Name, exp.KeyWakeups), "pbpl-wk/s")
	b.ReportMetric(last.MustValue(core.Name+"-nolatch", exp.KeyWakeups), "nolatch-wk/s")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: virtual
// producer-consumer events processed per wall-clock second (harness
// health, not a paper artifact).
func BenchmarkSimulatorThroughput(b *testing.B) {
	base := exp.MultiBase(5, 2*simtime.Second, 1998, 25)
	var items uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := impls.Run(impls.BP, base)
		if err != nil {
			b.Fatal(err)
		}
		items += r.Produced
	}
	b.ReportMetric(float64(items)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkPBPLRun measures a full PBPL simulation run.
func BenchmarkPBPLRun(b *testing.B) {
	base := exp.MultiBase(5, 2*simtime.Second, 1998, 25)
	cfg := core.DefaultConfig(base)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLivePut measures the live runtime's producer fast path.
func BenchmarkLivePut(b *testing.B) {
	rt, err := New(WithSlotSize(5*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(1<<16))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	var mu sync.Mutex
	drained := 0
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		drained += len(batch)
		mu.Unlock()
	}))

	if err != nil {
		b.Fatal(err)
	}
	defer pair.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pair.Put(i) != nil {
			time.Sleep(time.Microsecond)
		}
	}
}

// BenchmarkPutParallelPairs runs BenchmarkPut's loop from every
// RunParallel goroutine at once, each the single producer of its own
// pair. The producers share no pair, so a Put that also wrote a
// runtime-wide counter would show here as ns/op that does not fall
// with -cpu.
func BenchmarkPutParallelPairs(b *testing.B) {
	rt, err := New(WithSlotSize(5*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(1<<16))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	pairs := make([]*Pair[int], runtime.GOMAXPROCS(0))
	for i := range pairs {
		if pairs[i], err = Open(rt, Batch(func([]int) {})); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pair := pairs[next.Add(1)-1]
		for i := 0; pb.Next(); i++ {
			for pair.Put(i) != nil {
				time.Sleep(time.Microsecond)
			}
		}
	})
}

// BenchmarkInvocation measures the consumer side the Put benchmarks
// barely touch: the timer-driven drain cycle of four trickle-fed pairs
// on one manager. ns/op is dominated by waiting for slots; the number
// that matters is allocs/invocation, which scripts/alloc_gate.sh holds
// to zero.
func BenchmarkInvocation(b *testing.B) {
	rt, ps := trickleRuntime(b, 4)
	defer rt.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	made := trickle(rt, ps, uint64(b.N))
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(made), "allocs/invocation")
}

// BenchmarkLivePutBatch measures the bulk producer path: one PutBatch
// per 64 items against BenchmarkLivePut's item-at-a-time loop. The
// "kicks/item" metric shows the saved manager wakeup checks — a batch
// pays at most one kick where the Put loop pays an armed-check (and
// possibly a kick) per item.
func BenchmarkLivePutBatch(b *testing.B) {
	rt, err := New(WithSlotSize(5*time.Millisecond), WithMaxLatency(50*time.Millisecond), WithBuffer(1<<16))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	var mu sync.Mutex
	drained := 0
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		drained += len(batch)
		mu.Unlock()
	}))

	if err != nil {
		b.Fatal(err)
	}
	defer pair.Close()
	const batch = 64
	items := make([]int, batch)
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		if len(items) > b.N-sent {
			items = items[:b.N-sent]
		}
		n, err := pair.PutBatch(items)
		sent += n
		if err != nil {
			time.Sleep(time.Microsecond) // quota full: drain underway
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(pair.Stats().Kicks)/float64(b.N), "kicks/item")
	}
}

// BenchmarkLiveEndToEnd measures delivered items/s through the live
// runtime, batching included.
func BenchmarkLiveEndToEnd(b *testing.B) {
	rt, err := New(WithSlotSize(2*time.Millisecond), WithMaxLatency(20*time.Millisecond), WithBuffer(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	done := make(chan struct{})
	var mu sync.Mutex
	drained := 0
	target := b.N
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		drained += len(batch)
		d := drained
		mu.Unlock()
		if d >= target {
			select {
			case done <- struct{}{}:
			default:
			}
		}
	}))

	if err != nil {
		b.Fatal(err)
	}
	defer pair.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pair.Put(i) != nil {
			time.Sleep(time.Microsecond)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		b.Fatal("drain timeout")
	}
	st := rt.Stats()
	if w := st.TimerWakes + st.ForcedWakes; w > 0 {
		b.ReportMetric(float64(st.ItemsOut)/float64(w), "items/wakeup")
	}
}

// BenchmarkLatencyTradeoff regenerates the latency-vs-power table (the
// §III-C trade the paper states in prose).
func BenchmarkLatencyTradeoff(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Latency(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue(core.Name, exp.KeyLatencyP50), "pbpl-p50-ms")
	b.ReportMetric(last.MustValue("mutex", exp.KeyLatencyP50), "mutex-p50-ms")
}

// BenchmarkPredictors regenerates the §VIII estimator comparison.
func BenchmarkPredictors(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Predictors(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue("pbpl/ma(8)", exp.KeyWakeups), "ma8-wk/s")
	b.ReportMetric(last.MustValue("pbpl/kalman", exp.KeyWakeups), "kalman-wk/s")
}

// BenchmarkRaceToIdle regenerates the §II DVFS sensitivity table.
func BenchmarkRaceToIdle(b *testing.B) {
	var last exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.RaceToIdle(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.MustValue("bp@f=0.4", exp.KeyPower), "f0.4-mW")
	b.ReportMetric(last.MustValue("bp@f=1.0", exp.KeyPower), "f1.0-mW")
}
