package main

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds for the driver; the
// smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the baseline's median it may worsen by
}

// endToEnd are the metrics of the untraced pass, what an analyst or an
// operator of the system sees. Failures are not in the list: every pass
// reports attempted and failed ops beside its metrics, and any failure on an
// unmodified tree fails the run.
var endToEnd = []metricDef{
	{"latency_p50_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"cpu_ms_per_krow", "ms", "lower", 0.25},
	{"wire_bytes_per_row", "B", "lower", 0.005},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of the traced pass, layer.metric. They have no
// bound: they explain a move of an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{name: "mathx.multiexp_ns_per_row", unit: "ns", better: "lower"},
	{name: "mathx.multiexp_window", unit: "count", better: "lower"},
	{name: "mathx.expcrt_us", unit: "us", better: "lower"},
	{name: "mathx.fixedbase_exp_us", unit: "us", better: "lower"},
	{name: "mathx.mulmod_ns", unit: "ns", better: "lower"},

	{name: "paillier.encrypt_crt_us", unit: "us", better: "lower"},
	{name: "paillier.encrypt_public_us", unit: "us", better: "lower"},
	{name: "paillier.encrypt_pooled_us", unit: "us", better: "lower"},
	{name: "paillier.fold_ns_per_row", unit: "ns", better: "lower"},
	{name: "paillier.fold_mallocs_per_row", unit: "count", better: "lower"},
	{name: "paillier.parse_ct_ns", unit: "ns", better: "lower"},
	{name: "paillier.rerandomize_us", unit: "us", better: "lower"},
	{name: "paillier.decrypt_us", unit: "us", better: "lower"},

	{name: "wire.chunk_encode_ns_per_row", unit: "ns", better: "lower"},
	{name: "wire.chunk_decode_ns_per_row", unit: "ns", better: "lower"},
	{name: "wire.frame_rtt_us", unit: "us", better: "lower"},
	{name: "wire.crc_ns_per_kb", unit: "ns", better: "lower"},
	{name: "wire.hello_bytes", unit: "B", better: "lower"},

	{name: "selectedsum.client_encrypt_s", unit: "s", better: "lower"},
	{name: "selectedsum.absorb_s", unit: "s", better: "lower"},
	{name: "selectedsum.finalize_us", unit: "us", better: "lower"},
	{name: "selectedsum.decrypt_us", unit: "us", better: "lower"},
	{name: "selectedsum.session_pipe_s", unit: "s", better: "lower"},

	{name: "database.at_ns_per_row", unit: "ns", better: "lower"},
	{name: "colstore.at_ns_per_row", unit: "ns", better: "lower"},
	{name: "colstore.scan_mrows_per_s", unit: "Mrows/s", better: "higher"},
	{name: "colstore.build_s", unit: "s", better: "lower"},

	{name: "server.session_overhead_us", unit: "us", better: "lower"},
	{name: "server.sessions_completed", unit: "count", better: "higher"},
	{name: "server.sessions_rejected", unit: "count", better: "lower"},

	{name: "cluster.k1_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "cluster.combine_us", unit: "us", better: "lower"},
	{name: "cluster.max_shard_absorb_s", unit: "s", better: "lower"},
	{name: "cluster.sum_shard_absorb_s", unit: "s", better: "lower"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "cluster.hedged_dials", unit: "count", better: "lower"},

	{name: "jobs.plan_us", unit: "us", better: "lower"},
	{name: "jobs.submit_us", unit: "us", better: "lower"},
	{name: "jobs.queries_per_job", unit: "count", better: "lower"},
	{name: "durable.append_fsync_us", unit: "us", better: "lower"},

	{name: "stock.fetch_us_per_item", unit: "us", better: "lower"},
	{name: "stock.refill_items_per_s", unit: "1/s", better: "higher"},
	{name: "stock.online_fallbacks", unit: "count", better: "lower"},

	{name: "trace.cpu_closure_ratio", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
	{name: "proc.alloc_bytes_per_row", unit: "B", better: "lower"},
	{name: "proc.mallocs_per_row", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.host_slowdown", unit: "ratio", better: "lower"},
	{name: "client.latency_tail_s", unit: "s", better: "lower"},
	{name: "client.latency_tail_pct", unit: "%", better: "higher"},
	{name: "client.latency_samples", unit: "count", better: "higher"},
}
