package repro

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by the runtime.
var (
	// ErrClosed reports an operation on a closed pair or runtime.
	ErrClosed = errors.New("repro: closed")
	// ErrOverflow reports that Put found the pair's buffer at quota.
	// The runtime has already forced a drain; the caller may retry
	// immediately or shed the item.
	ErrOverflow = errors.New("repro: buffer overflow")
	// ErrTooManyPairs reports that the runtime already has WithMaxPairs
	// pairs open, so the quota ledger has no B0 left for another.
	ErrTooManyPairs = errors.New("repro: too many pairs")
	// ErrQuarantined reports a Put on a pair whose circuit breaker is
	// open (see Breaker): the handler has failed repeatedly and
	// items would only accumulate without draining, so Put fails fast.
	// The pair recovers automatically once a half-open probe succeeds;
	// callers should shed or route elsewhere, not spin.
	ErrQuarantined = errors.New("repro: pair quarantined")
)

// options collects runtime configuration.
type options struct {
	managers   int
	slotSize   time.Duration
	maxLatency time.Duration
	buffer     int
	minQuota   int
	maxPairs   int
	segSize    int

	consolidate *ConsolidationConfig
	powercap    *PowerCapConfig

	histograms  bool
	timelineCap int

	disableResizing bool

	// Eq. 8 energy constants; defaults approximate a mobile-class core
	// (they only steer the latch-vs-new-slot trade, not correctness).
	omegaMicro    float64
	perItemMicro  float64
	overheadMicro float64

	// errs collects invalid option arguments; New reports them joined
	// instead of silently adjusting the value.
	errs []error
}

// headroom is the target buffer utilization η of every live pair:
// quotas are sized to predicted need / η.
const headroom = 0.7

func defaultOptions() options {
	return options{
		managers:      1,
		slotSize:      10 * time.Millisecond,
		maxLatency:    200 * time.Millisecond,
		buffer:        64,
		minQuota:      2,
		maxPairs:      64,
		segSize:       16,
		omegaMicro:    38.5,
		perItemMicro:  1.7,
		overheadMicro: 6.8,
	}
}

func (o options) validate() error {
	if len(o.errs) > 0 {
		return errors.Join(o.errs...)
	}
	if o.managers < 1 {
		return fmt.Errorf("repro: managers %d < 1", o.managers)
	}
	if o.slotSize <= 0 {
		return fmt.Errorf("repro: slot size %v <= 0", o.slotSize)
	}
	if o.maxLatency < o.slotSize {
		return fmt.Errorf("repro: max latency %v below slot size %v", o.maxLatency, o.slotSize)
	}
	if o.buffer < 1 {
		return fmt.Errorf("repro: buffer %d < 1", o.buffer)
	}
	if o.minQuota < 1 || o.minQuota > o.buffer {
		return fmt.Errorf("repro: min quota %d outside [1, %d]", o.minQuota, o.buffer)
	}
	if o.maxPairs < 1 {
		return fmt.Errorf("repro: max pairs %d < 1", o.maxPairs)
	}
	if o.segSize < 1 {
		return fmt.Errorf("repro: segment size %d < 1", o.segSize)
	}
	if o.omegaMicro <= 0 || o.perItemMicro <= 0 || o.overheadMicro < 0 {
		return fmt.Errorf("repro: non-positive energy constants")
	}
	if o.timelineCap < 0 {
		return fmt.Errorf("repro: timeline capacity %d < 0", o.timelineCap)
	}
	if o.powercap != nil {
		if o.powercap.Milliwatts <= 0 {
			return fmt.Errorf("repro: power cap %v mW <= 0", o.powercap.Milliwatts)
		}
		if o.powercap.Interval < 0 {
			return fmt.Errorf("repro: power cap interval %v < 0", o.powercap.Interval)
		}
	}
	return nil
}

// Option configures a Runtime at New. The options fall into three
// concerns:
//
//   - Scheduling — when consumers wake: WithManagers, WithSlotSize,
//     WithMaxLatency, WithConsolidation, WithPowerCap. Each pair
//     predicts its rate with the paper's moving average (window 8) and
//     sizes its quota for a buffer utilization of 0.7.
//   - Buffering — where items wait: WithBuffer, WithMinQuota,
//     WithMaxPairs, and WithoutResizing, which pins every quota at B0.
//   - Observability — what the runtime reports: WithHistograms, and
//     WithTimeline, the one record of the runtime's events.
//
// Invalid arguments are reported as an error from New, never silently
// adjusted.
type Option func(*options)

// WithManagers sets the number of core managers (one goroutine and one
// slot track each); pairs are assigned round-robin. Default 1 — the
// paper's consumer-isolation setup. Scheduling concern.
func WithManagers(n int) Option { return func(o *options) { o.managers = n } }

// WithSlotSize sets the track slot Δ. Default 10ms. Scheduling
// concern.
func WithSlotSize(d time.Duration) Option { return func(o *options) { o.slotSize = d } }

// WithMaxLatency bounds how long an item may sit buffered before its
// batch is drained. Default 200ms. Scheduling concern; MaxLatency
// overrides it per pair.
func WithMaxLatency(d time.Duration) Option { return func(o *options) { o.maxLatency = d } }

// WithBuffer sets B0, each pair's preferred buffer capacity in items;
// the global pool is B0 × MaxPairs. Default 64. Buffering concern.
func WithBuffer(b int) Option { return func(o *options) { o.buffer = b } }

// WithMinQuota sets the floor a pair's elastic quota can shrink to.
// Default 2. Buffering concern.
func WithMinQuota(n int) Option { return func(o *options) { o.minQuota = n } }

// WithMaxPairs caps concurrently open pairs, and so bounds the global
// pool B0 × MaxPairs and the most quota one pair can be lent. Each pair
// makes its ring's segments as it first needs them, up to that bound.
// Default 64. Buffering concern.
func WithMaxPairs(n int) Option { return func(o *options) { o.maxPairs = n } }

// WithConsolidation enables the placement controller: a background
// goroutine that periodically packs pairs onto the fewest managers
// whose combined predicted load stays within cfg.BudgetRate, migrating
// pairs live (no item loss or reordering) so emptied managers park
// their timers entirely, and spreading back out when load approaches
// the budget. The zero ConsolidationConfig takes defaults; see
// internal/place for the policy. Most useful with WithManagers(n>1).
func WithConsolidation(cfg ConsolidationConfig) Option {
	return func(o *options) { o.consolidate = &cfg }
}

// WithHistograms enables per-pair latency histograms
// (enqueue→handler-start and enqueue→handler-done) and per-manager
// wake→drain-done histograms, queryable via Runtime.PairLatencies,
// ManagerLatencies and LatencyTotals. Latencies are sampled one item
// in LatencySampleEvery, riding the pair's item counter, so producers
// pay a branch per Put and a stamp write per sample; off (the
// default), the hot path pays one nil check. See internal/obs for the
// histogram's resolution bound.
func WithHistograms() Option { return func(o *options) { o.histograms = true } }

// WithTimeline enables the bounded in-memory wakeup timeline, the
// runtime's one event record — timer fires, forced wakes, drains,
// drops, handler overruns, migrations and breaker transitions,
// dumpable via Runtime.TimelineDump (pcd serves it at /debug/timeline)
// as the live analogue of the paper's Fig. 6. The
// ring keeps the most recent `capacity` records (rounded up to a
// power of two). capacity must be positive: New rejects ≤ 0 with an
// error (TimelineDefaultCap is a reasonable choice). Observability
// concern.
func WithTimeline(capacity int) Option {
	return func(o *options) {
		if capacity <= 0 {
			o.errs = append(o.errs, fmt.Errorf("repro: WithTimeline capacity %d <= 0 (use TimelineDefaultCap)", capacity))
			return
		}
		o.timelineCap = capacity
	}
}

// TimelineDefaultCap is the recommended WithTimeline capacity.
const TimelineDefaultCap = 4096

// WithoutResizing pins every pair's quota at B0 (ablation/debugging).
// Buffering concern.
func WithoutResizing() Option { return func(o *options) { o.disableResizing = true } }
