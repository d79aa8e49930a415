package repro

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/simtime"
)

// PowerCapConfig parameterizes the power-cap controller enabled by
// WithPowerCap: a background goroutine that prices the runtime's
// counter deltas under the board power model every Interval and walks
// the core.CapLadder throttle ladder — inflating placement budgets so
// the consolidation planner packs pairs onto fewer managers, raising
// the planner's per-wakeup cost ω so consumers batch harder inside
// their latency bounds, and lowering the managers' DVFS operating
// point — to keep the estimated application-attributable power under
// Milliwatts. Latency bounds survive throttling by construction: the
// planner never places a reservation beyond a pair's MaxLatency.
type PowerCapConfig struct {
	// Milliwatts is the power budget the controller keeps the smoothed
	// estimate under. Required > 0.
	Milliwatts float64
	// Interval is the controller tick (one measurement window). Zero
	// defaults to 250ms, matching the placement controller's cadence.
	Interval time.Duration
	// Pace selects the pace ladder (frequency first, batching later)
	// instead of the default race-to-idle ladder (consolidate wakeups
	// first, frequency last). See core.CapLadder.
	Pace bool
	// Estimator prices counter deltas into milliwatts. Zero Model:
	// power.Default() spread over the runtime's managers with its
	// Eq. 8 cost constants.
	Estimator power.Estimator
}

func (c PowerCapConfig) withDefaults(o options) PowerCapConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Estimator.Model == (power.Model{}) {
		c.Estimator = power.Estimator{
			Model:         power.Default(),
			Cores:         o.managers,
			OverheadMicro: o.overheadMicro,
			PerItemMicro:  o.perItemMicro,
		}
	}
	return c
}

// WithPowerCap enables the power-cap controller. Most useful together
// with WithConsolidation and WithManagers(n>1), which give the ladder
// its spatial-consolidation knob; without them the controller still
// throttles via batching (ω) and the DVFS operating point.
func WithPowerCap(cfg PowerCapConfig) Option {
	return func(o *options) { o.powercap = &cfg }
}

// PowerCapState is a snapshot of the power-cap controller, for
// /statusz and monitoring.
type PowerCapState struct {
	// Enabled reports whether WithPowerCap was configured.
	Enabled bool
	// Pace reports the configured ladder policy.
	Pace bool
	// CapMilliwatts is the configured budget.
	CapMilliwatts float64
	// EstimatedMilliwatts is the EWMA-smoothed application-attributable
	// power estimate the cap governs.
	EstimatedMilliwatts float64
	// WindowMilliwatts is the last raw measurement window.
	WindowMilliwatts float64
	// Step is the current ladder rung (0 = unthrottled); Throttled is
	// Step > 0.
	Step      int
	Throttled bool
	// Frequency is the commanded DVFS operating point shared by every
	// manager (relative, 1 = full clock).
	Frequency float64
	// OmegaScale and BudgetScale are the commanded batching and
	// placement-budget multipliers (1 = unthrottled).
	OmegaScale  float64
	BudgetScale float64
	// ThrottleEvents counts escalations; Stats.PowerThrottles reads it.
	ThrottleEvents uint64
}

// PowerCap returns the power-cap controller's state; the zero value
// when WithPowerCap was not configured.
func (rt *Runtime) PowerCap() PowerCapState {
	if rt.capper == nil {
		return PowerCapState{}
	}
	rt.capper.mu.Lock()
	defer rt.capper.mu.Unlock()
	return rt.capper.state
}

// powerCapController is the live mirror of the simulator's power-cap
// control plane (core.Run): same CapControl state machine, same ladder,
// fed by the power.Estimator over Stats deltas instead of simulated
// core residencies.
type powerCapController struct {
	rt   *Runtime
	cfg  PowerCapConfig
	ctl  *core.CapControl
	done chan struct{}

	// budgetBits is the commanded placement-budget multiplier
	// (Float64bits; zero reads as 1). The placement controller reads it
	// at every plan round — the planner itself is not goroutine-safe,
	// so the scale crosses over atomically and is applied on the
	// placement goroutine.
	budgetBits atomic.Uint64

	mu    sync.Mutex
	prev  power.Counters
	last  time.Time
	state PowerCapState
}

func newPowerCapController(rt *Runtime, cfg PowerCapConfig) *powerCapController {
	cfg = cfg.withDefaults(rt.opts)
	return &powerCapController{
		rt:   rt,
		cfg:  cfg,
		ctl:  core.NewCapControl(cfg.Milliwatts, cfg.Pace),
		done: make(chan struct{}),
		last: time.Now(),
		state: PowerCapState{
			Enabled:       true,
			Pace:          cfg.Pace,
			CapMilliwatts: cfg.Milliwatts,
			Frequency:     1,
			OmegaScale:    1,
			BudgetScale:   1,
		},
	}
}

// budgetScale returns the commanded placement-budget multiplier.
func (pc *powerCapController) budgetScale() float64 {
	bits := pc.budgetBits.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

func (pc *powerCapController) loop() {
	t := time.NewTicker(pc.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-pc.done:
			return
		case <-t.C:
			pc.step()
		}
	}
}

// step runs one controller tick: measure the window, observe, apply.
func (pc *powerCapController) step() {
	rt := pc.rt
	st := rt.Stats()
	cur := power.Counters{
		Wakeups:     st.TimerWakes + st.ForcedWakes,
		Invocations: st.Invocations,
		Items:       st.ItemsOut,
	}
	now := time.Now()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	dt := now.Sub(pc.last)
	if dt <= 0 {
		return
	}
	delta := power.Counters{
		Wakeups:     cur.Wakeups - pc.prev.Wakeups,
		Invocations: cur.Invocations - pc.prev.Invocations,
		Items:       cur.Items - pc.prev.Items,
	}
	pc.prev, pc.last = cur, now

	// Application-attributable power over the window: counters priced
	// at the current operating point (lower f stretches the same work
	// across a longer, lower-draw busy span), above the all-idle
	// floor, background excluded — no throttle can remove the constant
	// background draw, so a cap that included it would go infeasible
	// at light load.
	est := pc.cfg.Estimator.AtFrequency(pc.state.Frequency)
	win := est.ExtraPowerMilliwatts(delta, simtime.Duration(dt)) - est.Model.BackgroundMilliwatts
	if win < 0 {
		win = 0
	}

	if pc.ctl.Observe(win) {
		step := pc.ctl.Step()
		rt.planner.Scale.Set(step.OmegaScale)
		pc.budgetBits.Store(math.Float64bits(step.BudgetScale))
		pc.state.Frequency = step.Freq
		pc.state.OmegaScale = step.OmegaScale
		pc.state.BudgetScale = step.BudgetScale
	}
	pc.state.WindowMilliwatts = win
	pc.state.EstimatedMilliwatts = pc.ctl.Smoothed()
	pc.state.Step = pc.ctl.StepIndex()
	pc.state.Throttled = pc.ctl.Throttled()
	pc.state.ThrottleEvents = pc.ctl.ThrottleEvents()
}
