//! The names this benchmark reports, in one place: `BENCHMARK.json` is
//! generated from these tables and every run is checked against them.

/// (name, unit, better, bound).  `bound` is the share of the parent's
/// median by which a later change may worsen the metric.
///
/// The three wall-clock bounds are the largest the benchmark contract
/// allows because of `join_heavy` on this host: the same build differs
/// from itself by 5–10 % between runs there (memory-bound work on two
/// shared vCPUs), and a bound has to be about three times the spread.
/// Wait-bound workloads repeat to well under 1 %; see README.md.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("throughput_qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("sim_cost_s", "sim_s", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
];

/// (name, unit, better), grouped by layer; a layer is a module.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    ("net.roundtrip_ms", "ms", "lower"),
    ("net.self_ms", "ms", "lower"),
    ("net.ping_rtt_ms", "ms", "lower"),
    ("net.insert_roundtrip_ms", "ms", "lower"),
    ("net.accepted", "count", "lower"),
    ("net.protocol_errors", "count", "lower"),
    ("net.queries_ok", "count", "higher"),
    ("net.queries_err", "count", "lower"),
    ("net.inserts_ok", "count", "higher"),
    ("proto.request_encode_us", "us", "lower"),
    ("proto.request_decode_us", "us", "lower"),
    ("proto.response_encode_us", "us", "lower"),
    ("proto.response_decode_us", "us", "lower"),
    ("proto.request_bytes", "bytes", "lower"),
    ("proto.response_bytes", "bytes", "lower"),
    ("proto.insert_encode_us", "us", "lower"),
    ("proto.insert_decode_us", "us", "lower"),
    ("service.run_ms", "ms", "lower"),
    ("service.self_us", "us", "lower"),
    ("service.admitted", "count", "higher"),
    ("service.queued", "count", "lower"),
    ("service.peak_queued", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.panicked", "count", "lower"),
    ("engine.run_ms", "ms", "lower"),
    ("engine.fingerprint_us", "us", "lower"),
    ("engine.self_us", "us", "lower"),
    ("engine.insert_ms", "ms", "lower"),
    ("engine.insert_self_ms", "ms", "lower"),
    ("plancache.get_hit_us", "us", "lower"),
    ("plancache.get_miss_us", "us", "lower"),
    ("plancache.insert_us", "us", "lower"),
    ("plancache.invalidate_table_us", "us", "lower"),
    ("plancache.hit_rate", "ratio", "higher"),
    ("plancache.entries", "count", "lower"),
    ("plancache.epoch_invalidations", "count", "lower"),
    ("optimizer.build_us", "us", "lower"),
    ("optimizer.optimize_us", "us", "lower"),
    ("optimizer.optimize_join3_us", "us", "lower"),
    ("optimizer.optimize_share", "ratio", "lower"),
    ("core.estimate_us", "us", "lower"),
    ("core.estimate_calls", "count", "lower"),
    ("core.estimate_share", "ratio", "lower"),
    ("exec.execute_ms", "ms", "lower"),
    ("exec.scan_ms", "ms", "lower"),
    ("exec.join_ms", "ms", "lower"),
    ("exec.agg_ms", "ms", "lower"),
    ("exec.rows_in_per_s", "1/s", "higher"),
    ("exec.result_rows", "count", "higher"),
    ("exec.sim_pages", "count", "lower"),
    ("exec.sim_random_ios", "count", "lower"),
    ("exec.sim_cpu_ops", "count", "lower"),
    ("storage.append_ms", "ms", "lower"),
    ("storage.index_build_s", "s", "lower"),
    ("storage.table_rows_final", "count", "higher"),
    ("stats.synopsis_build_s", "s", "lower"),
    ("stats.sketch_fold_us", "us", "lower"),
    ("stats.sketch_seed_ms", "ms", "lower"),
    ("datagen.generate_s", "s", "lower"),
    ("process.peak_rss_mb", "MiB", "lower"),
    ("process.cpu_ms_per_query", "ms", "lower"),
    ("process.cpu_util", "cores", "lower"),
    ("ingest.insert_p50_ms", "ms", "lower"),
    ("ingest.insert_p90_ms", "ms", "lower"),
    ("ingest.batches", "count", "higher"),
    ("loadgen.late_p95_ms", "ms", "lower"),
    ("loadgen.input_hash", "id", "higher"),
    ("loadgen.samples", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
];

/// How long one run measures; `--seconds` defaults to this and
/// `BENCHMARK.json` hands it to the driver.
pub const RUN_SECONDS: u64 = 15;
