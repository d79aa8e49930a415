// Command pcd is the power-efficient producer-consumer daemon: it
// serves network traffic through the PBPL runtime. URL paths (and raw
// TCP line keys) map to producer-consumer pairs created on demand;
// consumer batches drain on the runtime's wakeup-minimizing schedule;
// admission control sheds (HTTP 429 / TCP drop) instead of blocking
// when a pair is at quota; /metrics and /statusz expose the paper's
// measurement set live.
//
//	pcd -http :8080                          # HTTP ingest + ops
//	pcd -http :8080 -tcp :8081               # plus the raw line protocol
//	pcd -slot 10ms -latency 200ms -work 50us # tune the wakeup economics
//	pcd -managers 4 -consolidate             # pack streams onto the fewest managers
//	pcd -managers 4 -consolidate -power-cap 500
//	                                         # throttle to hold estimated power ≤ 500mW
//	pcd -handler-timeout 50ms -breaker-failures 3 -redeliveries 3
//	                                         # fault tolerance: watchdog + breaker
//	pcd -histograms -timeline 4096           # latency histograms + wakeup timeline
//	                                         # (/metrics, /debug/latency, /debug/timeline)
//	pcd -node-id a -cluster-listen :7100 \
//	    -cluster-seed b@host2:7100 -fleet    # shard streams across a pcd fleet
//	pcd -tenants tenants.json                # multi-tenant: API-key auth +
//	                                         # per-tenant quotas (SIGHUP reloads)
//
// Multi-tenant mode (-tenants) loads a JSON registry of tenants — API
// keys, per-tenant rate limits, and elastic buffer budgets — and turns
// on authentication: HTTP ingest requires "Authorization: Bearer <key>"
// (401 otherwise) and the raw-TCP protocol an initial "auth <key>"
// line. SIGHUP re-reads the file and applies it atomically: keys
// rotate, budgets resize, and revoked tenants drain without restarting
// the daemon or dropping buffered items. An invalid file is rejected
// (counted in pcd_tenant_reload_errors_total) and the running registry
// stays in effect.
//
// Cluster mode (-cluster-listen) shards streams across pcd nodes:
// rendezvous hashing assigns each stream an owner, non-owners forward
// ingest to it (or answer 307 redirects to clients that send
// "X-Pcd-Redirect: 1"), and live pair migration re-homes a stream's
// backlog when ownership moves. With -fleet, the elected leader packs
// all streams onto the fewest nodes whose -fleet-budget holds the
// aggregate load, so lightly loaded fleets park whole machines.
//
// A stream whose handler keeps failing (panic, error, or deadline
// overrun) is quarantined: its items answer 503 (`pcd_shed_quarantined_total`)
// until a half-open probe succeeds, so one broken consumer never takes
// down the other streams on its core manager.
//
//	curl -d $'a\nb\nc' localhost:8080/ingest/audit
//	curl localhost:8080/metrics
//
// SIGTERM/SIGINT triggers the drain: stop accepting, flush every pair
// through the core managers (deadline -drain), then exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], nil, os.Stdout, os.Stderr))
}

// run is main with its environment injected so tests can drive the
// daemon in-process: sig overrides the OS signal channel when non-nil.
func run(args []string, sig chan os.Signal, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pcd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		httpAddr = fs.String("http", "127.0.0.1:8080", "HTTP ingest+ops listen address")
		tcpAddr  = fs.String("tcp", "", "raw-TCP line-protocol listen address (empty: disabled)")
		slot     = fs.Duration("slot", 10*time.Millisecond, "PBPL slot size Δ")
		latency  = fs.Duration("latency", 200*time.Millisecond, "max buffering latency bound")
		buffer   = fs.Int("buffer", 64, "per-pair preferred buffer B0, items")
		managers = fs.Int("managers", 1, "core managers (consumer cores)")
		maxPairs = fs.Int("max-pairs", 64, "max concurrently open streams")
		work     = fs.Duration("work", 0, "simulated per-item handler work (busy spin)")
		drain    = fs.Duration("drain", 10*time.Second, "shutdown drain deadline")
		addrFile = fs.String("addr-file", "", "write bound addresses here after listen (for supervisors/tests)")

		consolidate = fs.Bool("consolidate", false, "enable the placement controller: pack streams onto the fewest managers, live-migrating pairs so idle managers never wake")
		placeEvery  = fs.Duration("consolidate-interval", 250*time.Millisecond, "placement re-plan period (with -consolidate)")
		placeBudget = fs.Float64("consolidate-budget", 0, "per-manager load budget, predicted items/s (0: default)")

		powerCap      = fs.Float64("power-cap", 0, "power budget in estimated milliwatts above idle; the cap controller throttles batching, placement and the DVFS operating point to hold it (0: disabled)")
		powerCapEvery = fs.Duration("power-cap-interval", 250*time.Millisecond, "cap controller measurement window (with -power-cap)")
		powerCapPace  = fs.Bool("power-cap-pace", false, "use the pace ladder (lower frequency first) instead of race-to-idle (consolidate wakeups first)")

		handlerTimeout = fs.Duration("handler-timeout", 0, "per-stream handler watchdog deadline (0: disabled)")
		breakerK       = fs.Int("breaker-failures", 3, "consecutive handler failures that quarantine a stream (0: breaker disabled)")
		redeliveries   = fs.Int("redeliveries", 3, "redelivery attempts for a failed batch before its items drop")

		histograms  = fs.Bool("histograms", false, "record sampled latency histograms, exported at /metrics and /debug/latency")
		timelineCap = fs.Int("timeline", 0, "wakeup-timeline ring capacity served at /debug/timeline (0: disabled)")

		finalStatus     = fs.String("final-status", "", "write the final /statusz JSON here after the drain completes (chaos-oracle ledger testimony)")
		chaosFailPrefix = fs.String("chaos-fail-prefix", "", "fault injection: handlers for streams with this key prefix always fail, tripping the circuit breaker (chaos harness only)")

		nodeID           = fs.String("node-id", "", "this node's cluster id (required with -cluster-listen)")
		clusterListen    = fs.String("cluster-listen", "", "cluster wire listen address (empty: clustering disabled)")
		clusterSeed      = fs.String("cluster-seed", "", "static peer seeds, comma-separated id@host:port")
		clusterHB        = fs.Duration("cluster-heartbeat", 250*time.Millisecond, "peer heartbeat/probe period")
		advertiseHTTP    = fs.String("advertise-http", "", "HTTP ingest address advertised to peers for redirects (default: the bound -http address)")
		advertiseCluster = fs.String("advertise-cluster", "", "cluster wire address advertised to peers (default: the bound -cluster-listen address); lets NAT'd deployments or chaos proxies interpose on peer traffic")
		fleetOn          = fs.Bool("fleet", false, "enable the fleet placement controller (leader packs streams onto the fewest nodes)")
		fleetEvery       = fs.Duration("fleet-interval", 500*time.Millisecond, "fleet re-plan period (with -fleet)")
		fleetBudget      = fs.Float64("fleet-budget", 0, "default per-node load budget, items/s (0: packer default)")
		fleetBudgets     = fs.String("fleet-node-budget", "", "per-node budget overrides, comma-separated id@rate")

		tenantsPath = fs.String("tenants", "", "tenant registry JSON (enables API-key auth + per-tenant quotas; SIGHUP reloads)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := []repro.Option{
		repro.WithSlotSize(*slot),
		repro.WithMaxLatency(*latency),
		repro.WithBuffer(*buffer),
		repro.WithManagers(*managers),
		repro.WithMaxPairs(*maxPairs),
	}
	if *consolidate {
		opts = append(opts, repro.WithConsolidation(repro.ConsolidationConfig{
			Interval:   *placeEvery,
			BudgetRate: *placeBudget,
		}))
	}
	if *powerCap > 0 {
		opts = append(opts, repro.WithPowerCap(repro.PowerCapConfig{
			Milliwatts: *powerCap,
			Interval:   *powerCapEvery,
			Pace:       *powerCapPace,
		}))
	}
	if *histograms {
		opts = append(opts, repro.WithHistograms())
	}
	if *timelineCap > 0 {
		opts = append(opts, repro.WithTimeline(*timelineCap))
	}
	rt, err := repro.New(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "pcd:", err)
		return 1
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, format+"\n", a...)
	}
	var reg *tenant.Registry
	if *tenantsPath != "" {
		f, err := tenant.Load(*tenantsPath)
		if err != nil {
			rt.Close()
			fmt.Fprintln(stderr, "pcd:", err)
			return 2
		}
		if reg, err = tenant.NewRegistry(f); err != nil {
			rt.Close()
			fmt.Fprintln(stderr, "pcd:", err)
			return 2
		}
	}
	srv, err := server.New(server.Config{
		Tenants:  reg,
		Runtime:  rt,
		HTTPAddr: *httpAddr,
		TCPAddr:  *tcpAddr,
		Estimator: power.Estimator{
			Model:         power.Default(),
			Cores:         *managers,
			OverheadMicro: 6.8,
			PerItemMicro:  1.7,
		},
		HandlerFor: func(key string) func([][]byte) {
			if *work <= 0 {
				return func([][]byte) {}
			}
			return func(batch [][]byte) { spin(time.Duration(len(batch)) * *work) }
		},
		HandlerFuncFor: failingHandlers(*chaosFailPrefix, *work),
		PairOptions: func(key string) []repro.PairOption {
			return []repro.PairOption{
				repro.HandlerTimeout(*handlerTimeout),
				repro.Breaker(*breakerK),
				repro.Redelivery(*redeliveries),
			}
		},
		Logf: logf,
	})
	if err != nil {
		rt.Close()
		fmt.Fprintln(stderr, "pcd:", err)
		return 1
	}
	var node *cluster.Node
	if *clusterListen != "" {
		if *nodeID == "" {
			rt.Close()
			fmt.Fprintln(stderr, "pcd: -cluster-listen requires -node-id")
			return 2
		}
		seeds, err := parseSeeds(*clusterSeed)
		if err != nil {
			rt.Close()
			fmt.Fprintln(stderr, "pcd:", err)
			return 2
		}
		ccfg := cluster.Config{
			NodeID:         *nodeID,
			ListenAddr:     *clusterListen,
			HTTPAddr:       *advertiseHTTP,
			AdvertiseAddr:  *advertiseCluster,
			Seeds:          seeds,
			HeartbeatEvery: *clusterHB,
			Logf:           logf,
		}
		if *fleetOn {
			budgets, err := parseBudgets(*fleetBudgets)
			if err != nil {
				rt.Close()
				fmt.Fprintln(stderr, "pcd:", err)
				return 2
			}
			ccfg.Fleet = &cluster.FleetConfig{
				Interval:    *fleetEvery,
				BudgetRate:  *fleetBudget,
				NodeBudgets: budgets,
			}
		}
		node, err = cluster.NewNode(ccfg, srv)
		if err != nil {
			rt.Close()
			fmt.Fprintln(stderr, "pcd:", err)
			return 1
		}
		srv.SetRouter(node)
	}
	if err := srv.Start(); err != nil {
		if node != nil {
			node.Close()
		}
		rt.Close()
		fmt.Fprintln(stderr, "pcd:", err)
		return 1
	}
	if node != nil && *advertiseHTTP == "" {
		node.SetHTTPAddr(srv.Addr())
	}
	if *addrFile != "" {
		contents := fmt.Sprintf("http=%s\ntcp=%s\n", srv.Addr(), srv.TCPAddr())
		if node != nil {
			contents += fmt.Sprintf("cluster=%s\n", node.Addr())
		}
		if err := os.WriteFile(*addrFile, []byte(contents), 0o644); err != nil {
			fmt.Fprintln(stderr, "pcd: addr-file:", err)
			return 1
		}
	}

	if sig == nil {
		sig = make(chan os.Signal, 1)
	}
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sig)
	start := time.Now()
	var got os.Signal
	for got = range sig {
		if got != syscall.SIGHUP {
			break
		}
		// SIGHUP: hot-reload the tenant registry in place. A reload
		// failure keeps the running registry; only counters move.
		if reg == nil {
			logf("pcd: SIGHUP ignored (no -tenants registry)")
			continue
		}
		f, err := tenant.Load(*tenantsPath)
		if err != nil {
			reg.CountReloadError()
			logf("pcd: tenants reload: %v", err)
			continue
		}
		if err := reg.Apply(f); err != nil {
			logf("pcd: tenants reload: %v", err)
			continue
		}
		logf("pcd: tenants reloaded from %s (%d tenants)", *tenantsPath, len(f.Tenants))
	}
	logf("pcd: %v, draining (deadline %v)", got, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if node != nil {
		// Stop cluster traffic (probes, sweeps, fleet plans) before the
		// drain so no stream migrates in or out mid-shutdown.
		node.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		logf("pcd: drain: %v", err)
		code = 1
	}
	if err := rt.Close(); err != nil {
		logf("pcd: close: %v", err)
		code = 1
	}
	if *finalStatus != "" {
		// Post-drain ledger testimony for black-box harnesses: written
		// atomically (tmp + rename) so a reader never sees a torn file.
		if err := writeFinalStatus(srv, *finalStatus); err != nil {
			logf("pcd: final-status: %v", err)
			code = 1
		}
	}

	st := rt.Stats()
	elapsed := time.Since(start)
	wakes := st.TimerWakes + st.ForcedWakes
	perWake := float64(st.ItemsOut)
	if wakes > 0 {
		perWake /= float64(wakes)
	}
	fmt.Fprintf(stdout,
		"pcd: served %d items (%d overflows, %d dropped) over %.1fs: %d wakeups (%d timer + %d forced), %.1f items/wakeup\n",
		st.ItemsOut, st.Overflows, st.ItemsDropped, elapsed.Seconds(), wakes, st.TimerWakes, st.ForcedWakes, perWake)
	return code
}

// writeFinalStatus writes the server's post-drain /statusz JSON to
// path via tmp + rename.
func writeFinalStatus(srv *server.Server, path string) error {
	b, err := srv.StatusJSON()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// failingHandlers builds the -chaos-fail-prefix fault injector: streams
// whose key carries the prefix get an error-returning handler (feeding
// the breaker until quarantine), every other stream keeps the normal
// spin-or-discard handler. With no prefix it returns nil so the plain
// HandlerFor path stays in effect.
func failingHandlers(prefix string, work time.Duration) func(string) func(context.Context, [][]byte) error {
	if prefix == "" {
		return nil
	}
	return func(key string) func(context.Context, [][]byte) error {
		if strings.HasPrefix(key, prefix) {
			return func(context.Context, [][]byte) error {
				return fmt.Errorf("chaos: injected handler failure for %q", key)
			}
		}
		return func(_ context.Context, batch [][]byte) error {
			if work > 0 {
				spin(time.Duration(len(batch)) * work)
			}
			return nil
		}
	}
}

// parseSeeds parses "-cluster-seed id@host:port,id@host:port".
func parseSeeds(s string) (map[string]string, error) {
	seeds := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "@")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("pcd: bad -cluster-seed entry %q (want id@host:port)", part)
		}
		seeds[id] = addr
	}
	return seeds, nil
}

// parseBudgets parses "-fleet-node-budget id@rate,id@rate".
func parseBudgets(s string) (map[string]float64, error) {
	budgets := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rate, ok := strings.Cut(part, "@")
		if !ok || id == "" {
			return nil, fmt.Errorf("pcd: bad -fleet-node-budget entry %q (want id@rate)", part)
		}
		v, err := strconv.ParseFloat(rate, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("pcd: bad -fleet-node-budget rate %q", rate)
		}
		budgets[id] = v
	}
	return budgets, nil
}

// spin burns CPU for roughly d, modelling per-item consumer work
// without sleeping (a sleeping handler would hide the wakeup cost the
// daemon exists to demonstrate).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
