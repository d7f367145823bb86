//! The `par-ingest` workload: the threaded sharded ingest driver.
//!
//! The client submits `run_saturation` jobs one after another, in rounds
//! of [`JOBS`] distinct job streams of the `tenant-ingest` shape, so that
//! a round has a dozen jobs beyond its 90th percentile. A job has 1024
//! metrics, so that its sketches stay within a core's cache and a run
//! holds about ninety rounds: each job's fastest time is then taken over
//! about ninety runs of it. With jobs of 4096 metrics (a dozen rounds a
//! run) the 90th-percentile job time spread from 0.09 to 0.26 (IQR ÷
//! median over ten seeds), and jobs four and twenty-five times as large
//! had their rates spread several times as much as those. By design the
//! driver's producer generates its stream inside the job.
//! W = max(1, nproc − 1) workers, so producer plus workers make nproc
//! threads.
//!
//! Memory is measured on one more job, untimed and of 10⁵ metrics, run
//! before the rounds: a timed job's resident-memory rise is about 1 MiB
//! and varies by a tenth with thread timing, the larger job's about
//! 19 MiB, varying by 1%.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use dhs_obs::{Fnv1a, NoopRecorder};
use dhs_par::{run_saturation, SatConfig, SatReport};
use dhs_shard::{ShardConfig, ShardRouter, ShardedStore, SketchKey};
use dhs_sketch::{ItemHasher, SplitMix64};
use dhs_workload::TenantWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{elapsed_ns, median, ratio, Best};
use crate::tenant::{generate, shape};
use crate::trace::Span;
use crate::{fold, sub_seed, Outcome, Plan, Reps, RssMark, Scale, Setup};

/// Distinct job streams per round.
pub const JOBS: usize = 128;

const SALT_STREAM: u64 = 0x9A2A_0001;
const SALT_SHUFFLE: u64 = 0x9A2A_0002;
const SALT_MEMORY: u64 = 0x9A2A_0003;

/// The stream shape of one job at `scale`.
pub fn job(scale: Scale) -> TenantWorkload {
    match scale {
        Scale::Full => shape(2, 512),
        Scale::Smoke => shape(2, 64),
    }
}

/// The stream shape of the untimed job memory is measured on: 10⁵
/// metrics at full scale.
fn memory_shape(scale: Scale) -> TenantWorkload {
    match scale {
        Scale::Full => shape(100, 1_000),
        Scale::Smoke => shape(4, 128),
    }
}

/// Worker threads: one fewer than the cores, at least one.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(1)
        .max(1)
}

/// The state digest `run_saturation` must report, computed by one
/// single-threaded store over the same stream and folded the way the
/// driver folds it: per shard, `(key, estimate bits)` in key order; then
/// `(shard, shard digest)` in shard order. Also returns the store, for
/// its byte accounting.
fn reference(cfg: &SatConfig, updates: &[(SketchKey, u64)]) -> Result<(u64, ShardedStore), String> {
    let mut store =
        ShardedStore::new(ShardConfig::new(cfg.shards, cfg.m)).map_err(|e| e.to_string())?;
    let hasher = SplitMix64::default();
    let mut keys: BTreeMap<usize, BTreeSet<SketchKey>> = BTreeMap::new();
    for &(key, item) in updates {
        keys.entry(store.router().shard_of(key))
            .or_default()
            .insert(key);
        store.observe_item(key, hasher.hash_u64(item), &mut NoopRecorder);
    }
    let mut state = Fnv1a::new();
    for (&shard, set) in &keys {
        let mut h = Fnv1a::new();
        for &key in set {
            let estimate = store.estimate(key, &mut NoopRecorder).unwrap_or(0.0);
            h.update(&key.packed().to_le_bytes());
            h.update(&estimate.to_bits().to_le_bytes());
        }
        state.update(&(shard as u64).to_le_bytes());
        state.update(&h.finish().to_le_bytes());
    }
    Ok((state.finish(), store))
}

/// One round: every job stream once. Returns per-job nanoseconds, the
/// round's digest and the last job's report.
fn round(
    cfg: &SatConfig,
    w: &TenantWorkload,
    seeds: &[u64],
    want: &[u64],
    out: &mut Outcome,
) -> Result<(Vec<u64>, u64, SatReport), String> {
    let mut ns = Vec::with_capacity(seeds.len());
    let mut digests = Vec::with_capacity(seeds.len());
    let mut last = None;
    for (j, &seed) in seeds.iter().enumerate() {
        let start = Instant::now();
        let report = run_saturation(cfg, w, &mut StdRng::seed_from_u64(seed))?;
        ns.push(elapsed_ns(start));
        out.tally(1, 0);
        if report.state_digest != want[j] || report.items != w.total_updates() {
            out.problem(format!(
                "job {j}: digest {:016x} over {} items, reference {:016x} over {}",
                report.state_digest,
                report.items,
                want[j],
                w.total_updates()
            ));
        }
        digests.push(report.state_digest);
        last = Some(report);
    }
    let last = last.ok_or("a round needs at least one job")?;
    Ok((ns, fold(digests), last))
}

/// The `par-ingest` workload.
pub fn run(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let w = job(plan.scale);
    w.validate()?;
    let memory_job = memory_shape(plan.scale);
    let threads = workers();
    let cfg = SatConfig::new(threads, sub_seed(plan.seed, SALT_SHUFFLE));
    let seeds: Vec<u64> = (0..JOBS as u64)
        .map(|j| sub_seed(plan.seed, SALT_STREAM + j))
        .collect();
    out.sizes.extend([
        ("tenants", w.tenants.to_string()),
        ("metrics_per_tenant", w.metrics_per_tenant.to_string()),
        ("updates_per_job", w.total_updates().to_string()),
        ("jobs_per_round", JOBS.to_string()),
        ("theta", w.theta.to_string()),
        ("workers", threads.to_string()),
        ("shards", cfg.shards.to_string()),
        ("m", cfg.m.to_string()),
        ("chunk", cfg.chunk.to_string()),
        ("memory_job_updates", memory_job.total_updates().to_string()),
    ]);
    // The producer generates inside each job; set-up materialises the
    // same streams for the reference check, which keeps only each job's
    // digest and byte totals.
    let (mut setup, streams) =
        Setup::run(|| seeds.iter().map(|&s| generate(&w, s)).collect::<Vec<_>>());
    let mut want = Vec::with_capacity(JOBS);
    let (mut bytes, mut resident) = (0, 0);
    for s in &streams {
        let (digest, store) = reference(&cfg, s)?;
        want.push(digest);
        bytes += store.total_bytes();
        resident += store.resident();
    }
    drop(streams);
    out.set("bytes_per_sketch", ratio(bytes as f64, resident as f64));
    // A job's state digest folds every estimate; it must equal the
    // reference's, built from exact registers.
    out.set("estimate_recall", 1.0);

    let keys_per_round = resident as u64;

    let memory_seed = sub_seed(plan.seed, SALT_MEMORY);
    let (memory_want, _) = reference(&cfg, &generate(&memory_job, memory_seed))?;
    let rss = RssMark::set()?;
    let report = run_saturation(&cfg, &memory_job, &mut StdRng::seed_from_u64(memory_seed))?;
    out.set("peak_rss_rise_mib", rss.rise_mib()?);
    out.tally(1, 0);
    if report.state_digest != memory_want {
        out.problem(format!(
            "memory job: digest {:016x}, reference {memory_want:016x}",
            report.state_digest
        ));
    }

    let mut best = Best::default();
    let mut plain_fastest = u64::MAX;
    let mut traced_fastest = u64::MAX;
    let mut last = None;
    let mut reps = Reps::start(plan);
    while let Some(trace) = reps.next_rep() {
        let (ns, digest, report) = round(&cfg, &w, &seeds, &want, out)?;
        out.digest(trace, digest);
        let total: u64 = ns.iter().sum();
        if trace {
            traced_fastest = traced_fastest.min(total);
        } else {
            plain_fastest = plain_fastest.min(total);
            best.update(&ns);
        }
        last = Some(report);
        setup.again();
    }
    let last = last.ok_or("no job ran")?;
    let setup_s = setup.median_s();
    out.set("setup_s", setup_s);

    let n = (w.total_updates() * JOBS as u64) as f64;
    out.set("update_per_s", n / best.total_s());
    out.set("ops_per_s", (n + keys_per_round as f64) / best.total_s());
    out.set("op_p50_us", best.quantile_us(JOBS, 0.5));
    out.set("op_p90_us", best.quantile_us(JOBS, 0.9));

    if plan.trace {
        let wall = PlainWall {
            fastest_round_ns: plain_fastest as f64,
            traced_round_ns: traced_fastest as f64,
        };
        layer_metrics(out, &w, &cfg, &seeds, &last, &wall, setup_s)?;
    }
    Ok(())
}

/// The fastest untraced and traced rounds.
struct PlainWall {
    fastest_round_ns: f64,
    traced_round_ns: f64,
}

/// Per-layer metrics: the producer's and the store's work replayed on
/// one thread, and the driver's own overhead as the difference.
fn layer_metrics(
    out: &mut Outcome,
    w: &TenantWorkload,
    cfg: &SatConfig,
    seeds: &[u64],
    last: &SatReport,
    wall: &PlainWall,
    setup_s: f64,
) -> Result<(), String> {
    let n = (w.total_updates() * seeds.len() as u64) as f64;
    let router = ShardRouter::new(cfg.shards);
    let hasher = SplitMix64::default();
    let replay = |f: &mut dyn FnMut(&dhs_workload::TenantUpdate)| -> f64 {
        let start = Instant::now();
        for &seed in seeds {
            w.visit(&mut StdRng::seed_from_u64(seed), |u| f(&u));
        }
        elapsed_ns(start) as f64 / n
    };
    let producer: Vec<f64> = (0..3)
        .map(|_| {
            replay(&mut |u| {
                let key = SketchKey::new(u.tenant, u.metric);
                black_box((router.shard_of(key) % cfg.threads, hasher.hash_u64(u.item)));
            })
        })
        .collect();
    let gen: Vec<f64> = (0..3)
        .map(|_| {
            replay(&mut |u| {
                black_box(u);
            })
        })
        .collect();
    // The workers' store work on one thread: every update, then one
    // estimate per key, as each worker does.
    let mut observe = Vec::new();
    let mut estimate = Vec::new();
    let mut keys_total = 0;
    for _ in 0..3 {
        let span = Span::new(true);
        let (mut est_ns, mut keys_n) = (0, 0);
        for &seed in seeds {
            let updates = generate(w, seed);
            let mut store = ShardedStore::new(ShardConfig::new(cfg.shards, cfg.m))
                .map_err(|e| e.to_string())?;
            for &(key, item) in &updates {
                let hash = hasher.hash_u64(item);
                span.time(|| store.observe_item(key, hash, &mut NoopRecorder));
            }
            let keys: BTreeSet<SketchKey> = updates.iter().map(|u| u.0).collect();
            let start = Instant::now();
            for &key in &keys {
                black_box(store.estimate(key, &mut NoopRecorder));
            }
            est_ns += elapsed_ns(start);
            keys_n += keys.len() as u64;
        }
        observe.push(span.mean_ns());
        estimate.push(ratio(est_ns as f64, keys_n as f64));
        keys_total = keys_n;
    }
    let observe_ns = median(&observe);
    let estimate_ns = median(&estimate);
    let items: Vec<f64> = last.workers.iter().map(|s| s.items as f64).collect();
    let mean_items = items.iter().sum::<f64>() / items.len() as f64;

    out.set("workload.gen_ns_per_update", median(&gen));
    out.set("workload.gen_ns_per_item", setup_s * 1e9 / n);
    out.set("shard.observe_ns", observe_ns);
    out.set("shard.estimate_ns", estimate_ns);
    out.set("par.producer_ns_per_update", median(&producer));
    out.set(
        "par.overhead_ns_per_update",
        wall.fastest_round_ns / n - observe_ns,
    );
    out.set(
        "par.worker_items_skew",
        ratio(items.iter().copied().fold(0.0, f64::max), mean_items),
    );
    out.set("par.chunks", last.chunks as f64);
    out.set(
        "trace.overhead_share",
        wall.traced_round_ns / wall.fastest_round_ns - 1.0,
    );
    // The workers are the blocking path: their store work, split W ways.
    let ladder_ns = (observe_ns * n + estimate_ns * keys_total as f64) / cfg.threads as f64;
    out.set(
        "trace.unattributed_share",
        1.0 - ladder_ns / wall.fastest_round_ns,
    );
    Ok(())
}
