package main

// metricDef declares one reported metric. For a per-layer metric, moves
// lists the end-to-end metrics, as "metric@workload", that a change to
// the layer should move; validity marks the metrics that only say
// whether the run itself was sound and are never a gain.
type metricDef struct {
	name     string
	unit     string
	better   string // "lower" or "higher"
	moves    []string
	validity bool
}

// endToEnd are measured with tracing off. Every one is reported on every
// workload, so op-class figures that exist on only some mixes (top-k,
// append) are printed and saved but not declared here.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "read_p50_ms", unit: "ms", better: "lower"},
	{name: "read_p90_ms", unit: "ms", better: "lower"},
	{name: "capacity_rps", unit: "ops/s", better: "higher"},
	{name: "server_cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "server_rss_mb", unit: "MiB", better: "lower"},
}

var (
	// movesPipeline: the cold selection pipeline sets read latency and
	// capacity wherever reads miss, and search misses on every mix.
	movesPipeline = []string{
		"read_p50_ms@fresh-read", "read_p90_ms@fresh-read", "capacity_rps@fresh-read", "server_cpu_ms_per_op@fresh-read",
		"read_p50_ms@cluster-mixed", "capacity_rps@cluster-mixed", "server_cpu_ms_per_op@cluster-mixed",
		"read_p90_ms@hot-read", "capacity_rps@hot-read",
	}
	// movesServing: the warm path every cached read takes.
	movesServing = []string{"read_p50_ms@hot-read", "capacity_rps@hot-read", "server_cpu_ms_per_op@hot-read"}
	// movesWrites: ingestion and durability.
	movesWrites  = []string{"capacity_rps@ingest", "server_cpu_ms_per_op@ingest", "setup_s@ingest", "capacity_rps@fresh-read"}
	movesNLQ     = []string{"read_p50_ms@fresh-read"}
	movesCluster = []string{"read_p50_ms@cluster-mixed", "read_p90_ms@cluster-mixed", "capacity_rps@cluster-mixed"}
)

// perLayer come from a traced run: server counter deltas over its open
// loop and the in-process replay's spans.
var perLayer = []metricDef{
	{name: "rules.enumerate_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "rules.candidates", unit: "count", better: "lower", moves: movesPipeline},
	{name: "vizql.execute_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "vizql.dedupe_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "vizql.kept_ratio", unit: "ratio", better: "higher", moves: movesPipeline},
	{name: "rank.factors_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "rank.order_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "cache.prime_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "deepeye.topk_miss_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "deepeye.search_miss_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "deepeye.attributed_ratio", unit: "ratio", better: "higher", validity: true},
	{name: "deepeye.unattributed_ms", unit: "ms", better: "lower", moves: movesPipeline},
	{name: "server.handler_us", unit: "us", better: "lower", moves: movesServing},
	{name: "server.encode_us", unit: "us", better: "lower", moves: movesServing},
	{name: "server.response_bytes", unit: "bytes", better: "lower", moves: movesServing},
	{name: "server.transport_ms", unit: "ms", better: "lower", moves: movesServing},
	{name: "registry.use_us", unit: "us", better: "lower", moves: movesServing},
	{name: "cache.hit_us", unit: "us", better: "lower", moves: movesServing},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher", moves: movesServing},
	{name: "dataset.parse_us", unit: "us", better: "lower", moves: movesWrites},
	{name: "registry.append_us", unit: "us", better: "lower", moves: movesWrites},
	{name: "wal.append_us", unit: "us", better: "lower", moves: movesWrites},
	{name: "wal.fsyncs_per_write", unit: "count", better: "lower", moves: movesWrites},
	{name: "cache.invalidations_per_write", unit: "count", better: "lower", moves: movesWrites},
	{name: "nlq.parse_us", unit: "us", better: "lower", moves: movesNLQ},
	{name: "nlq.candidates", unit: "count", better: "lower", moves: movesNLQ},
	{name: "cluster.forwarded_ratio", unit: "ratio", better: "lower", moves: movesCluster},
	{name: "cluster.catchup_waits_per_read", unit: "count", better: "lower", moves: movesCluster},
	{name: "cluster.catchup_timeouts", unit: "count", better: "lower", moves: movesCluster},
	{name: "cluster.shipped_records_per_write", unit: "count", better: "lower", moves: movesCluster},
	{name: "load.send_lag_p99_ms", unit: "ms", better: "lower", validity: true},
	{name: "load.ops_attempted", unit: "count", better: "higher", validity: true},
}
