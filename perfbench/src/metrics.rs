//! The metric names and units the benchmark reports, in emission order.
//! `BENCHMARK.json` lists the same names; the smoke test checks they agree.

/// End-to-end metrics: every workload reports every one (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bulk_rate", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("update_us_p50", "us"),
    ("update_us_p90", "us"),
];

/// Per-layer metrics (traced runs). A layer a workload never calls reports
/// 0 and is marked `not on path` in the traced table.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("openflow.decode_ns", "ns"),
    ("openflow.encode_ns", "ns"),
    ("packet.parse_ns", "ns"),
    ("openflow.ctrl_bytes_per_flow", "B"),
    ("openflow.splice_ns", "ns"),
    ("openflow.splice_fast_ratio", "ratio"),
    ("controller.us_per_packet_in", "us"),
    ("erm.resolve_ns", "ns"),
    ("erm.bindings", "count"),
    ("policy.classify_ns", "ns"),
    ("policy.compile_us", "us"),
    ("policy.insert_us", "us"),
    ("policy.snapshots_per_update", "count"),
    ("memo.probe_ns", "ns"),
    ("memo.hit_ratio", "ratio"),
    ("memo.invalidations_per_update", "count"),
    ("pcp.flowmods_per_flow", "count"),
    ("pcp.install_retries", "count"),
    ("pool.reuse_ratio", "ratio"),
    ("alloc.per_flow", "count"),
    ("flush.flowmods_per_update", "count"),
    ("par.drain_us", "us"),
    ("par.punt_us", "us"),
    ("shard.binding_batches", "count"),
    ("shard.binding_update_us", "us"),
    ("dataplane.control_us_per_flow", "us"),
    ("dataplane.table0_rules", "count"),
    ("sim.events_per_flow", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.residual_share", "ratio"),
    ("model.ttfb_ms_p99", "ms"),
    ("repair.plan_ms.reachability", "ms"),
    ("repair.plan_ms.drift", "ms"),
    ("repair.plan_ms.isolation", "ms"),
    ("repair.plan_ms.waypoint", "ms"),
    ("reach.classes", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Values one workload measured, by metric name.
pub type Values = std::collections::BTreeMap<&'static str, f64>;
