package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// RunOpts carries the environment a chaos run needs.
type RunOpts struct {
	Dir  string // scratch directory (logs, addr files, final statuses)
	Bins Binaries
	Logf func(string, ...any)
}

// Run executes one seeded chaos scenario end to end and returns nil if
// every oracle verdict passed. All randomness — workload realization,
// victim choice, fault timing — derives from the seed, so a failing
// (scenario, seed) pair replays the identical run.
func Run(s Seed, opts RunOpts) error {
	runner, err := scenarioRunner(s.Scenario)
	if err != nil {
		return err
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rc := &runCtx{
		seed: s.Seed,
		rng:  rand.New(rand.NewSource(s.Seed)),
		opts: opts,
	}
	defer func() {
		if rc.fleet != nil {
			rc.fleet.Destroy()
		}
	}()
	if err := runner(rc); err != nil {
		logs := ""
		if rc.fleet != nil {
			logs = rc.fleet.DumpLogs(2048)
		}
		return fmt.Errorf("scenario %s seed %d: %w\n%s", s.Scenario, s.Seed, err, logs)
	}
	return nil
}

func scenarioRunner(sc Scenario) (func(*runCtx) error, error) {
	switch sc {
	case ScenarioKill9:
		return (*runCtx).runKill9, nil
	case ScenarioSigterm:
		return (*runCtx).runSigterm, nil
	case ScenarioPartition:
		return (*runCtx).runPartition, nil
	case ScenarioBreaker:
		return (*runCtx).runBreaker, nil
	case ScenarioChurn:
		return (*runCtx).runChurn, nil
	case ScenarioFlashCrowd:
		return (*runCtx).runFlashCrowd, nil
	case ScenarioNoisyTenant:
		return (*runCtx).runNoisyTenant, nil
	case ScenarioReload:
		return (*runCtx).runReload, nil
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %q (have %v)", sc, Scenarios())
	}
}

// runCtx is one run's live state.
type runCtx struct {
	seed   int64
	rng    *rand.Rand
	opts   RunOpts
	fleet  *Fleet
	driver *Driver
}

func (rc *runCtx) boot(nodes int, extra ...string) error {
	f, err := StartFleet(rc.opts.Dir, rc.opts.Bins, FleetOpts{
		Nodes:     nodes,
		ExtraArgs: extra,
		Logf:      rc.opts.Logf,
	})
	if err != nil {
		return err
	}
	rc.fleet = f
	if err := f.WaitConverged(15 * time.Second); err != nil {
		return err
	}
	rc.driver = NewDriver(f.Targets(), rc.opts.Logf)
	return nil
}

// drive replays a scenario to completion.
func (rc *runCtx) drive(sc trace.Scenario) DriveStats {
	rc.opts.Logf("chaos: replaying %s (%d streams, %d items)", sc.Name, len(sc.Streams), sc.TotalItems())
	st := rc.driver.Replay(context.Background(), sc, rc.seed)
	rc.opts.Logf("chaos: replay %s done: %s", sc.Name, st)
	return st
}

// finish quiesces (optional), drains every survivor, and runs the
// always-on oracle verdicts.
func (rc *runCtx) finish(quiesce bool, extraChecks ...func([]LedgerEntry) error) error {
	if quiesce {
		if err := rc.fleet.Quiesce(20 * time.Second); err != nil {
			return err
		}
	}
	entries, err := rc.fleet.DrainAll()
	if err != nil {
		return err
	}
	client := rc.driver.Stats()
	l := Sum(entries)
	rc.opts.Logf("chaos: client %s; fleet in=%d out=%d dropped=%d handedoff=%d migout=%d migin=%d indoubt=%d/%d stashed=%d",
		client, l.In, l.Out, l.Dropped, l.HandedOff, l.MigrationsOut, l.MigrationsIn,
		l.ForwardInDoubt, l.MigrateInDoubt, l.Stashed)
	if err := CheckConservation(client, entries); err != nil {
		return err
	}
	if err := CheckNodeConservation(entries); err != nil {
		return err
	}
	if l.MigrationsIn > l.MigrationsOut {
		return fmt.Errorf("migration counters inflated: Σ migrations_in %d > Σ migrations_out %d",
			l.MigrationsIn, l.MigrationsOut)
	}
	for _, check := range extraChecks {
		if err := check(entries); err != nil {
			return err
		}
	}
	return nil
}

// sleepSeeded pauses for base plus a seeded jitter of up to spread.
func (rc *runCtx) sleepSeeded(base, spread time.Duration) {
	time.Sleep(base + time.Duration(rc.rng.Int63n(int64(spread))))
}

// ---- scenario classes ----

// runKill9: quiesce, scrape, SIGKILL a seeded victim, restart it, keep
// serving. The pre-kill scrape is the dead incarnation's ledger
// testimony; conservation must hold across the hard loss.
func (rc *runCtx) runKill9() error {
	if err := rc.boot(3, "-buffer", "4096"); err != nil {
		return err
	}
	sc, err := trace.ByName("zipf", rc.seed, 6, 2*simtime.Second, 500)
	if err != nil {
		return err
	}
	rc.drive(sc)
	if err := rc.fleet.Quiesce(20 * time.Second); err != nil {
		return err
	}
	victim := rc.rng.Intn(3)
	if err := rc.fleet.Kill9(victim); err != nil {
		return err
	}
	if err := rc.fleet.WaitConverged(15 * time.Second); err != nil {
		return err
	}
	if err := rc.fleet.Restart(victim); err != nil {
		return err
	}
	if err := rc.fleet.WaitConverged(15 * time.Second); err != nil {
		return err
	}
	// The restarted incarnation serves the second wave.
	rc.driver.Targets = rc.fleet.Targets()
	sc2, err := trace.ByName("diurnal", rc.seed+1, 4, 3*simtime.Second/2, 400)
	if err != nil {
		return err
	}
	rc.drive(sc2)
	return rc.finish(true)
}

// runSigterm: SIGTERM one node in the middle of a flash-crowd burst
// while the driver keeps spraying all nodes (posts at the dying node
// must be refused, not lost). The victim must drain clean, exit 0, and
// leave final-status testimony.
func (rc *runCtx) runSigterm() error {
	if err := rc.boot(2, "-buffer", "4096"); err != nil {
		return err
	}
	sc, err := trace.ByName("flashcrowd", rc.seed, 4, 4*simtime.Second, 1200)
	if err != nil {
		return err
	}
	done := make(chan DriveStats, 1)
	go func() { done <- rc.driver.Replay(context.Background(), sc, rc.seed) }()
	rc.sleepSeeded(1200*time.Millisecond, time.Second)
	victim := rc.rng.Intn(2)
	rc.opts.Logf("chaos: SIGTERM %s mid-burst", rc.fleet.Nodes[victim].ID)
	if err := rc.fleet.Terminate(victim); err != nil {
		return err
	}
	<-done
	return rc.finish(true)
}

// runPartition: cut one node's inbound cluster wire mid-run (peers
// cannot reach it; it still reaches peers — the asymmetric case), heal,
// and require the ledger to close within the in-doubt slack.
func (rc *runCtx) runPartition() error {
	if err := rc.boot(3, "-buffer", "4096"); err != nil {
		return err
	}
	sc, err := trace.ByName("corrburst", rc.seed, 6, 5*simtime.Second, 500)
	if err != nil {
		return err
	}
	done := make(chan DriveStats, 1)
	go func() { done <- rc.driver.Replay(context.Background(), sc, rc.seed) }()
	rc.sleepSeeded(1200*time.Millisecond, 600*time.Millisecond)
	victim := rc.rng.Intn(3)
	rc.opts.Logf("chaos: partitioning %s (inbound cluster wire cut)", rc.fleet.Nodes[victim].ID)
	rc.fleet.Proxies[victim].Partition()
	rc.sleepSeeded(1500*time.Millisecond, 600*time.Millisecond)
	rc.opts.Logf("chaos: healing %s", rc.fleet.Nodes[victim].ID)
	rc.fleet.Proxies[victim].Heal()
	<-done
	return rc.finish(true)
}

// runBreaker: one zipf stream's handler always fails, so its breaker
// opens under load and its accepted backlog drops via redelivery
// exhaustion; conservation must classify all of it (dropped, not lost)
// and at least one quarantine must fire. No quiesce: a quarantined
// backlog only resolves in the final drain.
func (rc *runCtx) runBreaker() error {
	if err := rc.boot(2,
		"-buffer", "4096",
		"-chaos-fail-prefix", "zipf-00",
		"-breaker-failures", "2",
		"-redeliveries", "1",
	); err != nil {
		return err
	}
	sc, err := trace.ByName("zipf", rc.seed, 6, 3*simtime.Second, 400)
	if err != nil {
		return err
	}
	rc.drive(sc)
	return rc.finish(false, func(entries []LedgerEntry) error {
		l := Sum(entries)
		if l.Quarantines == 0 {
			return fmt.Errorf("breaker never tripped: 0 quarantines across the fleet")
		}
		if l.Dropped == 0 {
			return fmt.Errorf("quarantined backlog never dropped: 0 items dropped fleet-wide")
		}
		return nil
	})
}

// runChurn: fleet placement under correlated load swings. Migrations
// must happen and their stream-level counters must agree exactly —
// the per-frame inflation regression surfaces here.
func (rc *runCtx) runChurn() error {
	if err := rc.boot(3,
		"-buffer", "4096",
		"-fleet", "-fleet-interval", "200ms",
	); err != nil {
		return err
	}
	sc, err := trace.ByName("corrburst", rc.seed, 8, 5*simtime.Second, 500)
	if err != nil {
		return err
	}
	rc.drive(sc)
	return rc.finish(true, func(entries []LedgerEntry) error {
		if err := CheckMigrationCounts(entries); err != nil {
			return err
		}
		if l := Sum(entries); l.MigrationsOut == 0 {
			return fmt.Errorf("no placement churn: 0 migrations under correlated load swings")
		}
		return nil
	})
}

// runNoisyTenant: an authenticated two-node fleet hosts two tenants.
// "hot" drives the anti-predictor square wave far over its rate quota;
// "victim" runs a modest diurnal workload well inside its budgets. The
// hot tenant must shed at its own walls (rate/buffer, > 0 sheds), the
// victim's traffic must land nearly untouched (≤ 5% shed), and the
// black-box conservation ledger must still close — multi-tenant
// fairness as an oracle verdict, not just an in-process test.
func (rc *runCtx) runNoisyTenant() error {
	tenants := filepath.Join(rc.opts.Dir, "tenants.json")
	spec := `{"global_buffer": 8192, "tenants": [
		{"id": "victim", "keys": ["chaos-victim-key"], "buffer": 6144},
		{"id": "hot", "keys": ["chaos-hot-key"], "rate": 300, "burst": 150, "buffer": 2048}
	]}`
	if err := os.WriteFile(tenants, []byte(spec), 0o644); err != nil {
		return err
	}
	if err := rc.boot(2, "-buffer", "8192", "-tenants", tenants); err != nil {
		return err
	}
	victim, err := trace.ByName("diurnal", rc.seed, 4, 4*simtime.Second, 400)
	if err != nil {
		return err
	}
	hot, err := trace.ByName("antipred", rc.seed+1, 2, 4*simtime.Second, 1600)
	if err != nil {
		return err
	}
	rc.driver.Keys = make(map[string]string)
	for _, st := range victim.Streams {
		rc.driver.Keys[st.Key] = "chaos-victim-key"
	}
	for _, st := range hot.Streams {
		rc.driver.Keys[st.Key] = "chaos-hot-key"
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); rc.drive(victim) }()
	go func() { defer wg.Done(); rc.drive(hot) }()
	wg.Wait()

	sumStreams := func(sc trace.Scenario) DriveStats {
		var s DriveStats
		for _, st := range sc.Streams {
			s.Add(rc.driver.StreamStats(st.Key))
		}
		return s
	}
	vs, hs := sumStreams(victim), sumStreams(hot)
	rc.opts.Logf("chaos: victim %s; hot %s", vs, hs)
	if hs.Shed == 0 {
		return fmt.Errorf("hot tenant never shed (%s): quota walls not engaged", hs)
	}
	if sent := vs.Accepted + vs.Shed + vs.Quarantined + vs.Rejected + vs.InDoubt; sent > 0 {
		if frac := float64(sent-vs.Accepted) / float64(sent); frac > 0.05 {
			return fmt.Errorf("victim tenant lost %.1f%% of its traffic to the noisy neighbor (%s)", 100*frac, vs)
		}
	}
	return rc.finish(true)
}

// runReload: config hot reload under fire. An authenticated two-node
// fleet serves two tenants while the registry file is rewritten and
// SIGHUPed on every node mid-burst — first a key rotation with overlap
// (v1 and v2 both valid) plus a budget resize, then a deliberately
// corrupt file that every node must reject whole, leaving the live
// registry untouched. Traffic on the old key must keep flowing through
// both reloads, the rotated key must authorize a fresh wave afterwards,
// and the conservation ledger must still close: a reload may refuse
// new work but can never lose accepted items.
func (rc *runCtx) runReload() error {
	registry := filepath.Join(rc.opts.Dir, "reload-tenants.json")
	v1 := `{"global_buffer": 8192, "tenants": [
		{"id": "blue", "keys": ["chaos-blue-v1"], "buffer": 4096},
		{"id": "green", "keys": ["chaos-green-key"], "buffer": 4096}
	]}`
	if err := os.WriteFile(registry, []byte(v1), 0o644); err != nil {
		return err
	}
	if err := rc.boot(2, "-buffer", "8192", "-tenants", registry); err != nil {
		return err
	}
	blue, err := trace.ByName("diurnal", rc.seed, 4, 4*simtime.Second, 500)
	if err != nil {
		return err
	}
	green, err := trace.ByName("flashcrowd", rc.seed+1, 4, 4*simtime.Second, 600)
	if err != nil {
		return err
	}
	rc.driver.Keys = make(map[string]string)
	for _, st := range blue.Streams {
		rc.driver.Keys[st.Key] = "chaos-blue-v1"
	}
	for _, st := range green.Streams {
		rc.driver.Keys[st.Key] = "chaos-green-key"
	}

	// sighupAll signals every live node, then waits until each one's
	// reload counter (applied or rejected, per metric) reaches want —
	// the registry swap is asynchronous to the signal.
	sighupAll := func(metric string, want float64) error {
		for _, n := range rc.fleet.Live() {
			if err := n.Sighup(); err != nil {
				return err
			}
		}
		return waitFor("registry "+metric, 10*time.Second, func() (bool, error) {
			for _, n := range rc.fleet.Live() {
				if v, ok := n.MetricValue(metric); !ok || v < want {
					return false, nil
				}
			}
			return true, nil
		})
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); rc.drive(blue) }()
	go func() { defer wg.Done(); rc.drive(green) }()

	// Mid-burst reload #1: rotate blue's key (overlap keeps v1 valid so
	// in-flight traffic never breaks) and shrink green's budgets.
	rc.sleepSeeded(1200*time.Millisecond, 600*time.Millisecond)
	v2 := `{"global_buffer": 8192, "tenants": [
		{"id": "blue", "keys": ["chaos-blue-v2", "chaos-blue-v1"], "buffer": 4096},
		{"id": "green", "keys": ["chaos-green-key"], "rate": 400, "burst": 200, "buffer": 2048}
	]}`
	if err := os.WriteFile(registry, []byte(v2), 0o644); err != nil {
		return err
	}
	rc.opts.Logf("chaos: SIGHUP reload mid-burst (key rotation + budget resize)")
	if err := sighupAll("pcd_tenant_reloads_total", 1); err != nil {
		return err
	}

	// Mid-burst reload #2: a corrupt file. Every node must count the
	// rejection and keep serving from the v2 registry.
	rc.sleepSeeded(400*time.Millisecond, 400*time.Millisecond)
	if err := os.WriteFile(registry, []byte(`{"tenants": [{`), 0o644); err != nil {
		return err
	}
	rc.opts.Logf("chaos: SIGHUP with a corrupt registry (must be rejected whole)")
	if err := sighupAll("pcd_tenant_reload_errors_total", 1); err != nil {
		return err
	}
	wg.Wait()

	// The rotated key must authorize a fresh wave — proof the v2 swap
	// went live and survived the rejected reload.
	second, err := trace.ByName("diurnal", rc.seed+2, 2, 2*simtime.Second, 300)
	if err != nil {
		return err
	}
	for _, st := range second.Streams {
		rc.driver.Keys[st.Key] = "chaos-blue-v2"
	}
	if st2 := rc.drive(second); st2.Accepted == 0 {
		return fmt.Errorf("rotated key accepted nothing after reload (%s)", st2)
	}
	return rc.finish(true)
}

// runFlashCrowd: a synchronized spike over small buffers and consumers
// slower than the spike must shed at the door — and every shed item
// must be refused, never half-ingested. The per-item handler work is
// what makes it shed: ingest waits a bounded time on a full pair before
// it sheds, and a consumer that keeps up turns the whole spike into
// late acks (0 shed), which is not what this scenario is here to test.
func (rc *runCtx) runFlashCrowd() error {
	if err := rc.boot(2, "-buffer", "128", "-work", "2ms"); err != nil {
		return err
	}
	sc, err := trace.ByName("flashcrowd", rc.seed, 4, 4*simtime.Second, 2400)
	if err != nil {
		return err
	}
	stats := rc.drive(sc)
	return rc.finish(true, func(entries []LedgerEntry) error {
		if err := CheckMigrationCounts(entries); err != nil {
			return err
		}
		if stats.Shed == 0 {
			return fmt.Errorf("flash crowd never overflowed admission control (0 shed; raise the spike?)")
		}
		return nil
	})
}
