package repro

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/place"
)

// ConsolidationConfig parameterizes the placement controller enabled by
// WithConsolidation. The zero value takes sensible defaults.
type ConsolidationConfig struct {
	// Interval is how often the controller re-plans placement. Zero
	// defaults to 250ms — a few slot lengths, fast enough to track load
	// phases and slow enough that migration cost stays negligible.
	Interval time.Duration
	// BudgetRate is the hard per-manager load budget in predicted
	// items/s (see place.Config.BudgetRate). Zero takes the place
	// default.
	BudgetRate float64
	// TargetUtil is the pack level as a fraction of BudgetRate (see
	// place.Config.TargetUtil). Zero takes the place default (0.7).
	TargetUtil float64
	// MinDwell pins a freshly migrated pair for this many plans (see
	// place.Config.MinDwell). Zero takes the place default (3).
	MinDwell int
}

func (c ConsolidationConfig) withDefaults() ConsolidationConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	return c
}

// PlacementPlan summarizes one placement decision.
type PlacementPlan struct {
	// At is the wall-clock time the plan was computed.
	At time.Time
	// Pairs is how many open pairs the plan covered.
	Pairs int
	// Active is how many managers host at least one pair under the
	// plan; the rest hold no reservations and their timers park.
	Active int
	// Moves is how many migrations the plan requested; Applied is how
	// many actually happened (a pair closing mid-plan skips its move).
	Moves   int
	Applied int
}

// PlacementState is a snapshot of the placement controller, for
// /statusz and monitoring.
type PlacementState struct {
	// Enabled reports whether WithConsolidation was configured.
	Enabled bool
	// Plans counts completed planning rounds.
	Plans uint64
	// Migrations is Stats.Migrations.
	Migrations uint64
	// LastPlan is the most recent plan (zero value until the first
	// round completes).
	LastPlan PlacementPlan
}

// ManagerSnapshot is one core manager's placement view, captured by
// Runtime.ManagerSnapshots.
type ManagerSnapshot struct {
	// ID is the manager index.
	ID int
	// Pairs is the number of open pairs currently hosted here.
	Pairs int
	// TimerWakes / ForcedWakes are this manager's wakes; the matching
	// Stats totals are their sums over every manager.
	TimerWakes  uint64
	ForcedWakes uint64
}

// ManagerSnapshots reports, per core manager, how many pairs it hosts
// and how many wakeups it has paid, ordered by manager index.
func (rt *Runtime) ManagerSnapshots() []ManagerSnapshot {
	counts := make([]int, len(rt.managers))
	for _, st := range rt.openStates() {
		counts[st.mgr.Load().id]++
	}
	snaps := make([]ManagerSnapshot, len(rt.managers))
	for i, m := range rt.managers {
		snaps[i] = ManagerSnapshot{
			ID:          i,
			Pairs:       counts[i],
			TimerWakes:  m.timerWakes.Load(),
			ForcedWakes: m.forcedWakes.Load(),
		}
	}
	return snaps
}

// Placement returns the placement controller's state. With
// consolidation disabled only the Migrations counter is meaningful
// (and stays zero).
func (rt *Runtime) Placement() PlacementState {
	st := PlacementState{Migrations: rt.migrations.Load()}
	if rt.placer == nil {
		return st
	}
	st.Enabled = true
	rt.placer.mu.Lock()
	st.Plans = rt.placer.plans
	st.LastPlan = rt.placer.last
	rt.placer.mu.Unlock()
	return st
}

// placementController periodically snapshots every open pair's
// predicted rate and host manager, asks the place planner for a
// consolidation plan, and applies its moves via live migration.
type placementController struct {
	rt   *Runtime
	cfg  ConsolidationConfig
	pl   *place.Planner
	done chan struct{}

	mu    sync.Mutex
	plans uint64
	last  PlacementPlan

	// appliedScale is the power-cap budget multiplier last applied to
	// the planner (the planner is not goroutine-safe, so the scale is
	// read atomically here and applied on this goroutine).
	appliedScale float64
}

func newPlacementController(rt *Runtime, cfg ConsolidationConfig) (*placementController, error) {
	cfg = cfg.withDefaults()
	pl, err := place.NewPlanner(place.Config{
		Managers:   len(rt.managers),
		BudgetRate: cfg.BudgetRate,
		TargetUtil: cfg.TargetUtil,
		MinDwell:   cfg.MinDwell,
	})
	if err != nil {
		return nil, err
	}
	return &placementController{rt: rt, cfg: cfg, pl: pl, done: make(chan struct{}), appliedScale: 1}, nil
}

func (pc *placementController) loop() {
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

// step runs one planning round: snapshot, plan, migrate.
func (pc *placementController) step() {
	rt := pc.rt
	if cp := rt.capper; cp != nil {
		// Apply the power-cap controller's budget multiplier: an
		// inflated budget lets the planner pack pairs onto fewer
		// managers, so the parked ones stop waking at all. Scale 1
		// restores the configured budgets.
		if sc := cp.budgetScale(); sc != pc.appliedScale {
			if sc == 1 {
				pc.pl.SetBudgets(nil)
			} else {
				base := pc.cfg.BudgetRate
				if base <= 0 {
					base = place.DefaultBudgetRate
				}
				budgets := make([]float64, len(rt.managers))
				for i := range budgets {
					budgets[i] = base * sc
				}
				pc.pl.SetBudgets(budgets)
			}
			pc.appliedScale = sc
		}
	}
	states := rt.openStates()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })

	pairs := make([]place.Pair, 0, len(states))
	byID := make(map[int]*pairState, len(states))
	for _, st := range states {
		if st.closed.Load() {
			continue
		}
		pairs = append(pairs, place.Pair{
			ID:       st.id,
			Manager:  st.mgr.Load().id,
			Rate:     st.predictedRate(),
			Buffered: st.pending(),
		})
		byID[st.id] = st
	}

	plan := pc.pl.Plan(pairs)
	applied := 0
	for _, mv := range plan.Moves {
		if mv.To < 0 || mv.To >= len(rt.managers) {
			continue
		}
		if rt.migrate(byID[mv.Pair], rt.managers[mv.To]) {
			applied++
		}
	}

	pc.mu.Lock()
	pc.plans++
	pc.last = PlacementPlan{
		At:      time.Now(),
		Pairs:   len(pairs),
		Active:  plan.Active,
		Moves:   len(plan.Moves),
		Applied: applied,
	}
	pc.mu.Unlock()
}

// migrate moves a pair to another manager with no item loss or
// reordering. The protocol: on the source manager's goroutine, drop
// the pair's reservation, quiesce-drain any buffered items (a normal
// consumer invocation — the manager is already awake serving the
// command, so no wakeup is charged) and settle its outcome, then
// publish the new owner. The segmented ring and its quota travel with
// the pair untouched — only ownership changes. A hand-off kick makes
// the target plan the pair: the probe, redelivery or normal slot the
// settled outcome calls for, covering any producer kick that raced to
// the old manager. Must not be called from a manager goroutine (it
// blocks on one).
func (rt *Runtime) migrate(st *pairState, to *manager) bool {
	if st == nil || to == nil {
		return false
	}
	// Atomic: when the runtime closes mid-command runOnOwner returns
	// without waiting for the manager goroutine, which may still be
	// inside this closure.
	var moved atomic.Bool
	st.runOnOwner(func(from *manager) {
		if from == to || st.closed.Load() {
			return
		}
		from.deregister(st)
		if !st.quarantined.Load() {
			// Quarantined pairs move without a quiesce drain: running a
			// known-broken handler inline on the source would re-block
			// it, and the retained batch travels with the pair anyway.
			now := rt.now()
			st.settle(from, drainAside, st.drainFault(drainAside, 0), now)
		}
		st.mgr.Store(to)
		moved.Store(true)
	})
	if !moved.Load() {
		return false
	}
	rt.migrations.Add(1)
	rt.record(obs.KindMigrate, to.id, st.id, 0, 0)
	select {
	case to.kick <- st:
	case <-to.done:
	}
	return true
}
