package server

import (
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/simtime"
)

func wakeupsPerSecond(st repro.Stats, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(st.TimerWakes+st.ForcedWakes) / elapsed.Seconds()
}

// estimatePower prices the runtime counters under the configured board
// model (see internal/power.Estimator).
func (s *Server) estimatePower(st repro.Stats, elapsed time.Duration) float64 {
	return s.cfg.Estimator.AvgPowerMilliwatts(power.Counters{
		Wakeups:     st.TimerWakes + st.ForcedWakes,
		Invocations: st.Invocations,
		Items:       st.ItemsOut,
	}, simtime.Duration(elapsed))
}

// handleMetrics serves the Prometheus text exposition: the runtime's
// Stats counters, per-stream pair counters and buffer state, the
// server's shed/ingest accounting, and the model-priced live power
// estimate — the §III-B measurement set (power, wakeups/s) as a scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats := s.rt.Stats()
	elapsed := time.Since(s.start)
	p := metrics.NewProm()

	p.Gauge("pcd_uptime_seconds", "Seconds since the daemon started.", elapsed.Seconds())
	p.Gauge("pcd_draining", "1 while shutdown drain is in progress.", boolGauge(s.draining.Load()))

	p.Counter("pcd_items_in_total", "Items accepted into pair buffers.", float64(stats.ItemsIn))
	p.Counter("pcd_items_out_total", "Items drained through consumer handlers.", float64(stats.ItemsOut))
	p.Counter("pcd_timer_wakes_total", "Scheduled slot-timer wakeups (the paper's planned wakeups).", float64(stats.TimerWakes))
	p.Counter("pcd_forced_wakes_total", "Overflow-forced wakeups (the paper's unscheduled wakeups).", float64(stats.ForcedWakes))
	p.Counter("pcd_invocations_total", "Consumer batch drains.", float64(stats.Invocations))
	p.Counter("pcd_overflows_total", "Put calls that found a pair at quota.", float64(stats.Overflows))
	p.Counter("pcd_handler_panics_total", "Recovered consumer-handler panics.", float64(stats.HandlerPanics))
	p.Counter("pcd_handler_errors_total", "Non-nil returns from error-aware consumer handlers.", float64(stats.HandlerErrors))
	p.Counter("pcd_handler_timeouts_total", "Handler invocations that overran their watchdog deadline.", float64(stats.HandlerTimeouts))
	p.Counter("pcd_quarantines_total", "Circuit-breaker open transitions (pair quarantined after repeated failures).", float64(stats.Quarantines))
	p.Counter("pcd_recoveries_total", "Successful half-open probes closing a pair's circuit breaker.", float64(stats.Recoveries))
	p.Counter("pcd_redeliveries_total", "Failed batches re-offered to their handler.", float64(stats.Redeliveries))
	p.Counter("pcd_items_dropped_total", "Items discarded after redelivery exhaustion or final-drain failure.", float64(stats.ItemsDropped))
	p.Counter("pcd_migrations_total", "Pairs moved between core managers by the placement controller.", float64(stats.Migrations))
	p.Counter("pcd_items_handed_off_total", "Items extracted unprocessed by pair hand-offs for cross-node migration.", float64(stats.HandedOff))

	p.Gauge("pcd_wakeups_per_second", "Timer + forced wakeups per second of uptime (Eq. 4 objective, live).", wakeupsPerSecond(stats, elapsed))
	p.Gauge("pcd_estimated_power_milliwatts", "Model-priced average power draw (internal/power, not a measurement).", s.estimatePower(stats, elapsed))

	p.Counter("pcd_http_requests_total", "HTTP ingest requests handled.", float64(s.httpRequests.Load()))
	p.Counter("pcd_ingested_total", "Items accepted, by protocol.", float64(s.ingestedHTTP.Load()), "proto", "http")
	p.Counter("pcd_ingested_total", "Items accepted, by protocol.", float64(s.ingestedTCP.Load()), "proto", "tcp")
	p.Counter("pcd_shed_total", "Items shed by admission control (pair at quota), by protocol.", float64(s.shedHTTP.Load()), "proto", "http")
	p.Counter("pcd_shed_total", "Items shed by admission control (pair at quota), by protocol.", float64(s.shedTCP.Load()), "proto", "tcp")
	p.Counter("pcd_shed_quarantined_total", "Items rejected because the stream's pair was quarantined (breaker open), by protocol.", float64(s.quarantinedHTTP.Load()), "proto", "http")
	p.Counter("pcd_shed_quarantined_total", "Items rejected because the stream's pair was quarantined (breaker open), by protocol.", float64(s.quarantinedTCP.Load()), "proto", "tcp")
	for src, w := range s.overflowWaitStatus() {
		p.Counter("pcd_ingest_overflow_waits_total", "Ingest batches that found their pair full and waited for the forced drain, by entry protocol.", float64(w.Waits), "proto", src)
		p.Counter("pcd_ingest_overflow_wait_seconds_total", "Time ingest batches spent waiting for a forced drain (slow acks, nothing shed), by entry protocol.", w.Seconds, "proto", src)
	}
	p.Counter("pcd_tcp_malformed_total", "Raw-TCP lines that did not parse.", float64(s.tcpMalformed.Load()))
	p.Counter("pcd_stream_rejects_total", "Stream creations rejected (pair table full).", float64(s.streamRejects.Load()))

	mgrs := s.rt.ManagerSnapshots()
	active := 0
	for _, m := range mgrs {
		if m.Pairs > 0 {
			active++
		}
	}
	p.Gauge("pcd_active_managers", "Core managers hosting at least one pair; the rest park their timers.", float64(active))
	for _, m := range mgrs {
		id := strconv.Itoa(m.ID)
		p.Gauge("pcd_manager_pairs", "Open pairs hosted by this core manager.", float64(m.Pairs), "manager", id)
		p.Counter("pcd_manager_timer_wakes_total", "Slot-timer wakeups paid by this core manager.", float64(m.TimerWakes), "manager", id)
		p.Counter("pcd_manager_forced_wakes_total", "Overflow-forced wakeups paid by this core manager.", float64(m.ForcedWakes), "manager", id)
	}
	if pl := s.rt.Placement(); pl.Enabled {
		p.Counter("pcd_placement_plans_total", "Completed placement planning rounds.", float64(pl.Plans))
	}
	s.powerMetrics(p, mgrs)

	streams := s.snapshotStreams()
	p.Gauge("pcd_streams", "Open ingest streams (producer-consumer pairs).", float64(len(streams)))
	for _, st := range streams {
		id := strconv.Itoa(st.ID)
		p.Counter("pcd_stream_items_in_total", "Items accepted into this stream.", float64(st.ItemsIn), "stream", st.Key, "pair", id)
		p.Counter("pcd_stream_items_out_total", "Items drained from this stream.", float64(st.ItemsOut), "stream", st.Key, "pair", id)
		p.Counter("pcd_stream_invocations_total", "Batch drains of this stream.", float64(st.Invocations), "stream", st.Key, "pair", id)
		p.Counter("pcd_stream_overflows_total", "Overflowed Puts on this stream.", float64(st.Overflows), "stream", st.Key, "pair", id)
		p.Gauge("pcd_stream_buffer_items", "Items currently buffered.", float64(st.Len), "stream", st.Key, "pair", id)
		p.Gauge("pcd_stream_quota_items", "Current elastic buffer quota.", float64(st.Quota), "stream", st.Key, "pair", id)
		p.Gauge("pcd_stream_armed", "1 while the stream holds a slot reservation.", boolGauge(st.Armed), "stream", st.Key, "pair", id)
		p.Gauge("pcd_stream_manager", "Index of the core manager hosting this stream.", float64(st.Manager), "stream", st.Key, "pair", id)
		p.Gauge("pcd_stream_quarantined", "1 while the stream's circuit breaker is open.", boolGauge(st.Quarantined), "stream", st.Key, "pair", id)
		p.Gauge("pcd_stream_degraded", "1 while the stream's handler last overran its deadline.", boolGauge(st.Degraded), "stream", st.Key, "pair", id)
		p.Gauge("pcd_stream_retained_items", "Items of a failed batch held for redelivery.", float64(st.Retained), "stream", st.Key, "pair", id)
		p.Counter("pcd_stream_failures_total", "Handler failures on this stream, by kind.", float64(st.Panics), "stream", st.Key, "pair", id, "kind", "panic")
		p.Counter("pcd_stream_failures_total", "Handler failures on this stream, by kind.", float64(st.Errors), "stream", st.Key, "pair", id, "kind", "error")
		p.Counter("pcd_stream_failures_total", "Handler failures on this stream, by kind.", float64(st.Timeouts), "stream", st.Key, "pair", id, "kind", "timeout")
		p.Counter("pcd_stream_dropped_total", "Items dropped on this stream after redelivery exhaustion.", float64(st.Dropped), "stream", st.Key, "pair", id)
	}

	s.tenantMetrics(p)
	s.clusterMetrics(p)
	s.histogramMetrics(p)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.WriteTo(w)
}

// powerMetrics exports the pcd_power_* families: the configured cap,
// the smoothed application-attributable estimate the cap governs, the
// throttle ladder position and the per-manager DVFS operating point.
// Silent without WithPowerCap (the unconditional
// pcd_estimated_power_milliwatts gauge still covers the uncapped case).
func (s *Server) powerMetrics(p *metrics.Prom, mgrs []repro.ManagerSnapshot) {
	ps := s.rt.PowerCap()
	if !ps.Enabled {
		return
	}
	p.Gauge("pcd_power_cap_milliwatts", "Configured power budget above the all-idle floor.", ps.CapMilliwatts)
	p.Gauge("pcd_power_estimated_milliwatts", "EWMA-smoothed application-attributable power estimate the cap governs.", ps.EstimatedMilliwatts)
	p.Gauge("pcd_power_window_milliwatts", "Last raw measurement window of the cap controller.", ps.WindowMilliwatts)
	p.Gauge("pcd_power_throttled", "1 while the cap controller sits above ladder rung 0.", boolGauge(ps.Throttled))
	p.Gauge("pcd_power_step", "Current throttle-ladder rung (0 = unthrottled).", float64(ps.Step))
	p.Gauge("pcd_power_omega_scale", "Commanded multiplier on the planner's per-wakeup cost omega.", ps.OmegaScale)
	p.Gauge("pcd_power_budget_scale", "Commanded multiplier on per-manager placement budgets.", ps.BudgetScale)
	p.Counter("pcd_power_throttle_events_total", "Cap-controller escalations up the throttle ladder.", float64(ps.ThrottleEvents))
	for _, m := range mgrs {
		// One operating point is commanded fleet-wide today; labelled
		// per manager so dashboards survive a future per-core policy.
		p.Gauge("pcd_power_frequency", "Commanded relative DVFS operating point (1 = full clock).", ps.Frequency, "manager", strconv.Itoa(m.ID))
	}
}

// tenantMetrics exports the pcd_tenant_* families: per-tenant
// admission outcomes, elastic buffer state, and the registry's auth
// and reload counters. Silent without a tenant registry.
func (s *Server) tenantMetrics(p *metrics.Prom) {
	reg := s.cfg.Tenants
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	p.Gauge("pcd_tenant_global_buffer_items", "Global buffered-item capacity shared by all tenants.", float64(snap.GlobalBuffer))
	p.Gauge("pcd_tenant_global_usage_items", "Buffered items currently charged across all tenants.", float64(snap.GlobalUsage))
	p.Counter("pcd_auth_failures_total", "Requests rejected for an unknown API key (HTTP 401 / TCP close).", float64(snap.AuthFailures))
	p.Counter("pcd_tenant_reloads_total", "Registry hot reloads applied (SIGHUP).", float64(snap.Reloads))
	p.Counter("pcd_tenant_reload_errors_total", "Registry reloads rejected (invalid or unreadable file).", float64(snap.ReloadErrors))
	p.Counter("pcd_tenant_reclaim_denied_total", "Borrow attempts refused to protect active tenants' budgets.", float64(snap.ReclaimDenied))
	for _, t := range snap.Tenants {
		p.Counter("pcd_tenant_accepted_total", "Items accepted into pair buffers, by tenant.", float64(t.Accepted), "tenant", t.ID)
		p.Counter("pcd_tenant_shed_total", "Items shed by tenant admission control, by budget.", float64(t.ShedRate), "tenant", t.ID, "reason", "rate")
		p.Counter("pcd_tenant_shed_total", "Items shed by tenant admission control, by budget.", float64(t.ShedBuffer), "tenant", t.ID, "reason", "buffer")
		p.Counter("pcd_tenant_quarantined_total", "Items rejected on quarantined pairs, by tenant.", float64(t.Quarantined), "tenant", t.ID)
		p.Gauge("pcd_tenant_buffer_usage_items", "Buffered items currently charged to this tenant.", float64(t.BufferUsage), "tenant", t.ID)
		p.Gauge("pcd_tenant_buffer_budget_items", "This tenant's guaranteed buffer budget.", float64(t.Budget), "tenant", t.ID)
		p.Gauge("pcd_tenant_buffer_borrowed_items", "Usage beyond budget, borrowed from idle tenants' slack.", float64(t.Borrowed), "tenant", t.ID)
		p.Gauge("pcd_tenant_rate_limit", "This tenant's rate budget in items/s (0 = unlimited).", t.Rate, "tenant", t.ID)
		p.Gauge("pcd_tenant_revoked", "1 while the tenant's keys are revoked but buffered items still drain.", boolGauge(t.Revoked), "tenant", t.ID)
	}
}

// clusterMetrics exports the pcd_cluster_* families: membership by
// state, the forwarding path, and cross-node stream migrations. Silent
// on a clusterless server.
func (s *Server) clusterMetrics(p *metrics.Prom) {
	r := s.router
	if r == nil {
		return
	}
	cs := r.Status()
	byState := map[string]int{"alive": 0, "suspect": 0, "dead": 0}
	for _, peer := range cs.Peers {
		byState[peer.State]++
	}
	for _, state := range []string{"alive", "suspect", "dead"} {
		p.Gauge("pcd_cluster_peers", "Cluster peers by health state (this node excluded).", float64(byState[state]), "state", state)
	}
	p.Gauge("pcd_cluster_epoch", "Routing epoch; bumps on membership or override changes.", float64(cs.Epoch))
	p.Gauge("pcd_cluster_route_overrides", "Fleet placement overrides in force.", float64(cs.Overrides))
	p.Gauge("pcd_cluster_leader", "1 when this node is the fleet placement leader.", boolGauge(cs.Leader == cs.NodeID))
	p.Gauge("pcd_cluster_owned_streams", "Streams this node currently hosts.", float64(len(s.StreamKeys())))
	p.Counter("pcd_cluster_forwards_total", "Items forwarded between nodes on the ingest path, by direction.", float64(s.forwardedOut.Load()), "dir", "out")
	p.Counter("pcd_cluster_forwards_total", "Items forwarded between nodes on the ingest path, by direction.", float64(s.forwardedIn.Load()), "dir", "in")
	p.Counter("pcd_cluster_forward_fallbacks_total", "Forwards that failed and fell back to local ingest (no item lost).", float64(s.forwardFallbacks.Load()))
	p.Counter("pcd_cluster_redirects_total", "Smart-client ingests answered with a 307 to the owner.", float64(s.redirects.Load()))
	p.Counter("pcd_cluster_migrations_total", "Cross-node stream migrations, by direction.", float64(s.migrationsOut.Load()), "dir", "out")
	p.Counter("pcd_cluster_migrations_total", "Cross-node stream migrations, by direction.", float64(s.migrationsIn.Load()), "dir", "in")
	p.Counter("pcd_cluster_migrated_items_total", "Items shipped in stream hand-offs, by direction.", float64(s.migratedOutItems.Load()), "dir", "out")
	p.Counter("pcd_cluster_migrated_items_total", "Items shipped in stream hand-offs, by direction.", float64(s.migratedInItems.Load()), "dir", "in")
	p.Counter("pcd_cluster_migrate_shed_total", "Migrated items shed at the new owner after the hand-off wait.", float64(s.shedMigrate.Load()))
	p.Counter("pcd_cluster_migrate_quarantined_total", "Migrated items rejected at the new owner because the pair was quarantined.", float64(s.quarantinedMigrate.Load()))
	p.Counter("pcd_cluster_forward_indoubt_items_total", "Forwarded items written to the owner whose ack was lost; possibly ingested, never re-sent (bounded ledger slack).", float64(cs.ForwardInDoubtItems))
	p.Counter("pcd_cluster_migrate_indoubt_items_total", "Hand-off items written to the owner whose ack was lost; possibly ingested, never re-sent (bounded ledger slack).", float64(cs.MigrateInDoubtItems))
	p.Counter("pcd_cluster_migrate_requeue_failed_items_total", "Hand-off items whose local re-admission failed after a failed ship; stashed and retried by the sweep.", float64(cs.RequeueFailedItems))
	p.Gauge("pcd_cluster_stashed_items", "Items currently stashed awaiting a sweep retry after failed hand-off and re-admission.", float64(cs.StashedItems))
}

// histogramMetrics exports the WithHistograms latency distributions as
// Prometheus histograms (seconds, DefaultLatencyBounds ladder): per
// stream the buffered-wait and full enqueue→done latency, per manager
// the wake→drain-done time. Silent when histograms are off.
func (s *Server) histogramMetrics(p *metrics.Prom) {
	pls := s.rt.PairLatencies()
	mls := s.rt.ManagerLatencies()
	if len(pls) == 0 && len(mls) == 0 {
		return
	}
	bounds := make([]float64, 0, len(repro.DefaultLatencyBounds()))
	for _, b := range repro.DefaultLatencyBounds() {
		bounds = append(bounds, b.Seconds())
	}
	keys := s.streamKeysByPair()
	for _, pl := range pls {
		key, ok := keys[pl.ID]
		if !ok {
			continue
		}
		id := strconv.Itoa(pl.ID)
		p.Histogram("pcd_stream_wait_seconds",
			"Sampled enqueue to handler-start latency: how long items sat buffered.",
			bounds, pl.Wait.Cumulative, pl.Wait.Sum.Seconds(), "stream", key, "pair", id)
		p.Histogram("pcd_stream_latency_seconds",
			"Sampled enqueue to handler-done latency, the bound MaxLatency enforces.",
			bounds, pl.Done.Cumulative, pl.Done.Sum.Seconds(), "stream", key, "pair", id)
		p.Counter("pcd_stream_stamp_drops_total",
			"Latency samples discarded on a full stamp ring (items still flowed).",
			float64(pl.StampDrops), "stream", key, "pair", id)
	}
	for _, ml := range mls {
		p.Histogram("pcd_manager_drain_seconds",
			"Wake to drain-done time per core-manager wakeup.",
			bounds, ml.Drain.Cumulative, ml.Drain.Sum.Seconds(), "manager", strconv.Itoa(ml.ID))
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
