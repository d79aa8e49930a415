package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors every stamp the harness writes into an item: stamps are
// monotonic nanoseconds since process start.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

const hexDigits = "0123456789abcdef"

var hexVal = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	for i := 0; i < 16; i++ {
		t[hexDigits[i]] = int8(i)
	}
	return t
}()

// putHex16 writes v as 16 lowercase hex digits into dst[:16].
func putHex16(dst []byte, v uint64) {
	_ = dst[15]
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// parseHex16 reads 16 hex digits; ok is false on any other byte.
func parseHex16(src []byte) (v uint64, ok bool) {
	if len(src) < 16 {
		return 0, false
	}
	for _, c := range src[:16] {
		d := hexVal[c]
		if d < 0 {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// latHist is a single-writer log-linear histogram of nanosecond values
// with 1/128 relative resolution — fine enough that a quantile does not
// flip between coarse buckets from run to run (internal/obs' 1/16 would
// show up as a 6 % step in deliver_p99_ms). Values clamp at 2^40 ns
// (18 minutes), which keeps one histogram at 17 KiB: there is one per
// stream per measured window.
type latHist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 8 // sub-bucket bits: 2^-(histSub-1) relative error
	histLinear  = 1 << histSub
	histOctave  = 1 << (histSub - 1)
	histMaxBits = 40
	histBuckets = histLinear + (histMaxBits-histSub)*histOctave
)

func (h *latHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u >= 1<<histMaxBits {
		u = 1<<histMaxBits - 1
	}
	idx := int(u)
	if u >= histLinear {
		k := bits.Len64(u)
		idx = histLinear + (k-histSub-1)*histOctave + int(u>>uint(k-histSub)) - histOctave
	}
	h.counts[idx]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the upper edge of the bucket holding the q-th
// observation, in nanoseconds (0 when empty).
func (h *latHist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			if i < histLinear {
				return int64(i)
			}
			o, s := (i-histLinear)/histOctave, (i-histLinear)%histOctave
			shift := uint(o + 1)
			return int64(uint64(histOctave+s)<<shift + 1<<shift - 1)
		}
	}
	return 0
}

func (h *latHist) ms(q float64) float64 { return float64(h.quantile(q)) / 1e6 }

// spanClock places a stamp in the measured span, which is cut into n
// windows of winNs each. Until begin is called nothing is in the span,
// so warm-up stays out of every histogram; stamps past the last window
// (the drain) fall outside too.
type spanClock struct {
	from  atomic.Int64
	winNs int64
	n     int
}

func newSpanClock(span time.Duration, n int) *spanClock {
	c := &spanClock{winNs: int64(span) / int64(n), n: n}
	c.from.Store(math.MaxInt64)
	return c
}

func (c *spanClock) begin() { c.from.Store(nowNs()) }

// window is the index of the window stamp falls in, or -1.
func (c *spanClock) window(stamp int64) int {
	d := stamp - c.from.Load()
	if d < 0 {
		return -1
	}
	if w := d / c.winNs; w < int64(c.n) {
		return int(w)
	}
	return -1
}

// winHist is one histogram per measured window. Percentiles are taken
// per window and the median window reported, like the rates: one stall
// of the sandbox then costs one window, not the run's p99.
type winHist []latHist

func (c *spanClock) newWinHist() winHist { return make(winHist, c.n) }

func (h winHist) merge(o winHist) {
	for i := range o {
		h[i].merge(&o[i])
	}
}

// ms is the median over the windows of each window's q-quantile.
func (h winHist) ms(q float64) float64 {
	v := make([]float64, len(h))
	for i := range h {
		v[i] = h[i].ms(q)
	}
	return median(v)
}

func (h winHist) samples() (n uint64) {
	for i := range h {
		n += h[i].n
	}
	return n
}

// cpuTimes is the process's user-mode and user+system CPU so far.
func cpuTimes() (user, total time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	user = time.Duration(ru.Utime.Nano())
	return user, user + time.Duration(ru.Stime.Nano())
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	_, total := cpuTimes()
	return total
}

// threadCPU is the CPU time (user + system) that thread tid of this
// process has used so far, read from the thread's CPU-time clock.
func threadCPU(tid int) time.Duration {
	var ts syscall.Timespec
	clock := int32(^tid)<<3 | 6 // CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_MASK
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocated is the heap objects and bytes allocated so far.
func allocated() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0 (a window in which nothing moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeLoop runs fn repeatedly for about budget and returns the mean
// nanoseconds per call. fn should do enough work per call (≥ 1 µs) that
// the clock reads do not show.
func timeLoop(budget time.Duration, fn func()) float64 {
	fn() // warm caches and lazy set-up
	start := time.Now()
	calls := 0
	for time.Since(start) < budget {
		for i := 0; i < 64; i++ {
			fn()
		}
		calls += 64
	}
	return float64(time.Since(start)) / float64(calls)
}
