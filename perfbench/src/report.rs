//! Metric names, units and the result line.
//!
//! The two tables here are the benchmark's metric contract: every run
//! reports every end-to-end metric (untraced) or every per-layer metric
//! (traced), by name and unit. A per-layer metric of a layer the
//! workload bypasses reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; README.md maps each to its meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_rise_mib", "MiB"),
    ("estimate_recall", "share"),
    ("ops_per_s", "1/s"),
    ("update_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("bytes_per_sketch", "B"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Counts are
/// per measured repetition; `ns` figures are per call or per update as
/// README.md states. Hops, messages and bytes are cost-model counts.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_update", "ns"),
    ("workload.gen_ns_per_item", "ns"),
    ("sketch.splitmix_ns", "ns"),
    ("sketch.classify_ns", "ns"),
    ("sketch.tiered_observe_ns", "ns"),
    ("sketch.md4_ns", "ns"),
    ("sketch.register_vec_ns", "ns"),
    ("sketch.sll_estimate_ns", "ns"),
    ("sketch.wire_encode_ns", "ns"),
    ("sketch.wire_decode_ns", "ns"),
    ("sketch.promotions_packed", "count"),
    ("sketch.promotions_dense", "count"),
    ("shard.observe_ns", "ns"),
    ("shard.bookkeeping_ns", "ns"),
    ("shard.estimate_ns", "ns"),
    ("shard.evictions", "count"),
    ("shard.recoveries", "count"),
    ("shard.spilled_bytes", "B"),
    ("shard.read_recover_share", "share"),
    ("shard.skew", "ratio"),
    ("cold.spill_ns", "ns"),
    ("cold.recover_ns", "ns"),
    ("par.producer_ns_per_update", "ns"),
    ("par.overhead_ns_per_update", "ns"),
    ("par.worker_items_skew", "ratio"),
    ("par.chunks", "count"),
    ("core.insert_ns", "ns"),
    ("core.insert_self_ns", "ns"),
    ("core.count_ns", "ns"),
    ("core.count_multi_ns", "ns"),
    ("core.count_self_ns", "ns"),
    ("core.hops_per_insert", "count"),
    ("core.hops_per_count", "count"),
    ("core.msgs_per_count", "count"),
    ("core.bytes_per_count", "B"),
    ("dht.route_ns", "ns"),
    ("dht.put_ns", "ns"),
    ("dht.fetch_ns", "ns"),
    ("dht.fetches_per_count", "count"),
    ("dht.probe_hit_share", "share"),
    ("dht.nav_ns", "ns"),
    ("net.exchange_ns", "ns"),
    ("net.exchanges_per_op", "count"),
    ("net.timeouts", "count"),
    ("net.retries", "count"),
    ("net.delivered_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Check that `metrics` holds exactly the names of `table`, each finite.
pub fn complete(metrics: &Metrics, table: &[(&str, &str)]) -> Result<(), String> {
    for (name, _) in table {
        match metrics.get(name) {
            None => return Err(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    if let Some(extra) = metrics.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not in the table"));
    }
    Ok(())
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip formatting gives it.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit_of(name).unwrap_or("?"))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of string fields.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_wellformed_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut m = Metrics::new();
        m.insert("setup_s", 0.25);
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(complete(&m, &END_TO_END[..1]).is_ok());
        assert!(complete(&m, END_TO_END).is_err());
    }
}
