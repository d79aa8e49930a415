package main

import "time"

// The runtime every workload shares (ISSUE 11): the paper's §VI slot and
// latency bound, one core manager.
const (
	slotSize   = 10 * time.Millisecond
	maxLatency = 100 * time.Millisecond
	managers   = 1
)

// windowsIn cuts the measured span into one-second windows (at least
// four): rates, CPU and percentiles are taken per window and the median
// window is reported.
func windowsIn(measure time.Duration) int {
	if n := int(measure / time.Second); n > 4 {
		return n
	}
	return 4
}

// Item layout: 64 bytes, no newline or space — 16 hex digits of
// per-stream sequence number, 16 hex digits of creation stamp
// (nanoseconds since the process epoch), then filler.
const (
	itemSize  = 64
	seqOff    = 0
	stampOff  = 16
	fillerOff = 32
)

type loopKind int

const (
	httpClosed loopKind = iota // closed loop over raw-socket HTTP/1.1
	tcpOpen                    // open loop, paced raw-TCP lines
	libOpen                    // open loop, in-process trace replay
)

// workload is one traffic shape. Everything the program under test sees
// is derived from these fields and the seed.
type workload struct {
	Name string
	Why  string

	kind    loopKind
	conns   int     // generator connections (goroutines, for the library)
	streams int     // stream keys (pairs)
	batch   int     // items per request (1 per line on TCP and lib)
	b0      int     // repro.WithBuffer
	floor   int     // repro.WithMinQuota; 0 keeps the runtime's default
	tenants int     // API-key tenants (0 = open server)
	cluster bool    // two-node fleet, every key owned by the far node
	rate    float64 // open loop: offered items/s (tcp) or World-Cup base rate per pair (lib)
}

var workloads = []workload{
	{
		Name: "http_saturate",
		Why:  "closed loop, 256-item HTTP batches: server per-item path and repro enqueue/drain do the work; cluster and tenant do none",
		kind: httpClosed, conns: 1, streams: 8, batch: 256, b0: 65536, floor: 65536,
	},
	{
		Name: "tcp_tenant_paced",
		Why:  "open loop, 200k single-item TCP lines/s through tenant auth and rate admission: the server layer used one item at a time",
		kind: tcpOpen, conns: 2, streams: 8, batch: 1, b0: 32768, floor: 32768, tenants: 2, rate: 200000,
	},
	{
		Name: "lib_worldcup",
		Why:  "open loop, the paper's World-Cup trace over 5 in-process pairs: only the PBPL scheduler works, on the wait-free single-producer path",
		kind: libOpen, conns: 1, streams: 5, batch: 1, b0: 64, rate: 800,
	},
	{
		Name: "cluster_forward",
		Why:  "closed loop into node A of a two-node fleet with every key owned by node B: each item crosses the fwd wire, which http_saturate bypasses",
		kind: httpClosed, conns: 2, streams: 8, batch: 64, b0: 32768, cluster: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees; measured with tracing
// off, reported on every workload. Keep in step with BENCHMARK.json
// (TestNamesMatchBenchmarkJSON).
var endToEnd = []metricDef{
	{"allocs_per_item", "count", "lower", 0.10},
	{"alloc_bytes_per_item", "B", "lower", 0.10},
	{"deliver_p50_ms", "ms", "lower", 0.25},
	{"deliver_p99_ms", "ms", "lower", 0.25},
	{"est_uj_per_item", "uJ", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.10},
}

// perLayer comes from the traced run and the isolated replays.
var perLayer = []metricDef{
	// End-to-end by nature, but not gated: see bench/README.md, "What
	// is not gated and why".
	{"items_per_s", "items/s", "higher", 0},
	{"cpu_us_per_item", "us", "lower", 0},
	{"cpu_user_us_per_item", "us", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"wakeups_per_kitem", "count", "lower", 0},
	{"boot_cold_ms", "ms", "lower", 0},

	{"client.send_lag_p99_ms", "ms", "lower", 0},
	{"client.gen_ns_per_item", "ns", "lower", 0},
	{"client.sdk_ns_per_item", "ns", "lower", 0},

	{"server.ack_p50_ms", "ms", "lower", 0},
	{"server.ack_p99_ms", "ms", "lower", 0},
	{"server.requests_per_s", "1/s", "higher", 0},
	{"server.self_ns_per_item", "ns", "lower", 0},
	{"server.shed_share", "ratio", "lower", 0},
	{"server.tcp_malformed", "count", "lower", 0},
	{"server.stream_open_ms", "ms", "lower", 0},
	{"server.statusz_ms", "ms", "lower", 0},
	{"server.metrics_scrape_ms", "ms", "lower", 0},
	{"server.shutdown_drain_ms", "ms", "lower", 0},

	{"tenant.authorize_ns", "ns", "lower", 0},
	{"tenant.admit_rate_ns_per_item", "ns", "lower", 0},
	{"tenant.buffer_acquire_release_ns_per_item", "ns", "lower", 0},
	{"tenant.shed_rate_share", "ratio", "lower", 0},

	{"cluster.encode_ns_per_item", "ns", "lower", 0},
	{"cluster.decode_ns_per_item", "ns", "lower", 0},
	{"cluster.wire_bytes_per_item", "B", "lower", 0},
	{"cluster.resolve_ns", "ns", "lower", 0},
	{"cluster.forward_rtt_p50_ms", "ms", "lower", 0},
	{"cluster.forward_rtt_p99_ms", "ms", "lower", 0},
	{"cluster.forward_items_per_s", "items/s", "higher", 0},
	{"cluster.forward_fallbacks", "count", "lower", 0},
	{"cluster.forward_indoubt_items", "count", "lower", 0},

	{"repro.put_ns_per_item", "ns", "lower", 0},
	{"repro.putbatch_ns_per_item", "ns", "lower", 0},
	{"repro.put_allocs_per_item", "count", "lower", 0},
	{"repro.wait_p50_ms", "ms", "lower", 0},
	{"repro.wait_p99_ms", "ms", "lower", 0},
	{"repro.drain_p50_us", "us", "lower", 0},
	{"repro.drain_p99_us", "us", "lower", 0},
	{"repro.handler_ns_per_item", "ns", "lower", 0},
	{"repro.timer_wakes", "count", "lower", 0},
	{"repro.forced_wakes", "count", "lower", 0},
	{"repro.invocations", "count", "lower", 0},
	{"repro.items_per_wakeup", "count", "higher", 0},
	{"repro.overflows", "count", "lower", 0},
	{"repro.wakeups_per_kitem", "count", "lower", 0},

	{"ring.spsc_ns_per_item", "ns", "lower", 0},
	{"ring.unbounded_ns_per_item", "ns", "lower", 0},
	{"ring.segmented_mp_ns_per_item", "ns", "lower", 0},
	{"ring.pushbatch_ns_per_item", "ns", "lower", 0},

	{"power.est_mw", "mW", "lower", 0},
	{"power.extra_mw", "mW", "lower", 0},

	{"obs.trace_overhead_share", "ratio", "lower", 0},
	{"obs.hist_record_ns", "ns", "lower", 0},
}
