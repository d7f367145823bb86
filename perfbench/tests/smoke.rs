//! Smoke-scale runs of every workload.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Duration;

use dhs_core::transport::{MessageKind, Transport};
use dhs_core::RetryPolicy;
use dhs_dht::cost::CostLedger;
use dhs_net::{FaultPlane, SimConfig, SimTransport};
use dhs_perfbench::report::{END_TO_END, PER_LAYER};
use dhs_perfbench::trace::TracedTransport;
use dhs_perfbench::{run, Outcome, Plan, Scale, WORKLOADS};

fn smoke(workload: &str, trace: bool, seed: u64) -> Outcome {
    let plan = Plan {
        seed,
        scale: Scale::Smoke,
        budget: Duration::ZERO,
        trace,
    };
    let out = run(workload, &plan).expect("smoke run completes");
    assert!(
        out.correct,
        "{workload} (trace {trace}): {:?}",
        out.problems
    );
    out
}

#[test]
fn every_workload_reports_every_end_to_end_metric_nonzero() {
    for w in WORKLOADS {
        let out = smoke(w, false, 7);
        assert!(out.attempted > 0, "{w}: nothing attempted");
        assert_eq!(out.metrics.len(), END_TO_END.len(), "{w}");
        for (name, _) in END_TO_END {
            let v = out.metrics[name];
            // The tests share one process, whose freed memory a tiny
            // store can reuse without growing; the CLI test checks the
            // memory rise at full scale.
            let floor = if *name == "peak_rss_rise_mib" {
                0.0
            } else {
                f64::MIN_POSITIVE
            };
            assert!(v.is_finite() && v >= floor, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn traced_runs_report_the_per_layer_table_and_match_untraced_outputs() {
    for w in WORKLOADS {
        let plain = smoke(w, false, 9);
        let traced = smoke(w, true, 9);
        assert_eq!(traced.metrics.len(), PER_LAYER.len(), "{w}");
        assert!(
            traced.digests.iter().any(|d| d.0),
            "{w}: no traced repetition"
        );
        // Estimates, store digests, ledger charges and transport counts
        // are folded into each repetition's digest: every repetition of
        // both runs, traced or not, must agree bit for bit.
        let digests: BTreeSet<u64> = plain
            .digests
            .iter()
            .chain(&traced.digests)
            .map(|d| d.1)
            .collect();
        assert_eq!(digests.len(), 1, "{w}: digests differ: {digests:x?}");
        assert!(traced.metrics["trace.overhead_share"].is_finite());
        assert!(traced.metrics["trace.unattributed_share"].is_finite());
    }
}

#[test]
fn different_seeds_give_different_outputs() {
    for w in WORKLOADS {
        assert_ne!(
            smoke(w, false, 1).digests[0],
            smoke(w, false, 2).digests[0],
            "{w}"
        );
    }
}

#[test]
fn overlay_failure_accounting_sees_exchanges_and_timeouts() {
    let traced = smoke("overlay-dhs", true, 3);
    assert!(traced.metrics["net.exchanges_per_op"] > 0.0);
    assert!(
        traced.metrics["net.timeouts"] > 0.0,
        "1% loss should time some out"
    );
    assert!(traced.metrics["dht.fetches_per_count"] > 0.0);
    assert!(traced.metrics["core.hops_per_insert"] > 0.0);
}

#[test]
fn traced_transport_counts_attempts_timeouts_and_last_failure() {
    let mut net = TracedTransport::new(
        SimTransport::new(SimConfig {
            faults: FaultPlane::lossy(1.0),
            retry: RetryPolicy::new(3, 1, 1),
            ..SimConfig::default()
        }),
        true,
    );
    let mut ledger = CostLedger::new();
    let out = net.exchange(1, 2, MessageKind::Probe, 16, 8, &mut ledger);
    assert!(out.is_err());
    assert_eq!((net.calls(), net.timeouts()), (1, 1));
    assert!(net.last_failed());
    assert_eq!(net.exchange.calls(), 1);
}

#[test]
fn a_digest_mismatch_fails_the_run() {
    let mut out = smoke("tenant-ingest", false, 4);
    let first = out.digests[0].1;
    out.digest(false, first ^ 1);
    assert!(!out.correct);
    assert_eq!(out.problems.len(), 1);
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dhs-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn cli_prints_the_result_object_last() {
    let out = bench(&[
        "--workload",
        "tenant-ingest",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, unit) in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
        let value: f64 = stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} = ")))
            .and_then(|v| v.split(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} line"));
        assert!(value > 0.0, "{name} = {value}");
    }
    assert!(stdout.contains("\"available_parallelism\""));
}

#[test]
fn cli_rejects_bad_arguments_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "par-ingest",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "par-ingest",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &["--workload", "par-ingest", "--seed", "1", "--seconds", "1"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric_with_its_unit() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} [{unit}] missing");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
    }
}
