//! The store workloads: `tenant-ingest` and `tenant-mixed`.
//!
//! Both replay the multi-tenant stream shape of `dhs-workload`
//! (a registration pass over every metric, then Zipf(θ = 0.7) updates)
//! into a `ShardedStore` of 8 shards of m = 64 registers, hashing each
//! item with SplitMix64 inside the timed region.
//!
//! * `tenant-ingest` applies the updates with no budget: the store's
//!   index, tier promotion and accounting do almost all the work.
//! * `tenant-mixed` gives every shard a fixed byte budget, spills
//!   evictions to a `MemoryColdTier`, and reads one Zipf-drawn metric's
//!   estimate after every 4th update.

use std::hint::black_box;
use std::time::Instant;

use dhs_obs::{names, Fnv1a, NoopRecorder, Recorder};
use dhs_shard::{classify_hash, ColdTier, MemoryColdTier, ShardConfig, ShardedStore, SketchKey};
use dhs_sketch::{superloglog_estimate_from_registers, ItemHasher, SplitMix64, TieredRegisters};
use dhs_workload::{TenantWorkload, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{elapsed_ns, median, ns_per_op, ratio, Best};
use crate::trace::{CountingRecorder, RecoverCount, Span, TimedCold};
use crate::{fold, sub_seed, Outcome, Plan, Reps, RssMark, Scale, Setup};

/// Shards per store.
pub const SHARDS: usize = 8;
/// Registers per sketch.
pub const M: usize = 64;
/// Zipf skew of the update pass.
pub const THETA: f64 = 0.7;
/// Updates drawn after the registration pass, per metric.
pub const EXTRA_PER_METRIC: u64 = 3;
/// Updates per timed request of `tenant-ingest` (the threaded driver's
/// chunk size).
pub const BATCH: usize = 256;
/// `tenant-mixed` reads one estimate after this many updates.
pub const READ_EVERY: usize = 4;
/// Per-shard byte budget of `tenant-mixed` at full scale: about half the
/// per-shard peak (≈ 96 kB) that the unbudgeted store reaches on the
/// same stream.
pub const MIXED_BUDGET_BYTES: u64 = 48_000;
/// How many sketches the isolated read-path timings replay.
const READ_SAMPLE: usize = 20_000;

const SALT_STREAM: u64 = 0x7E4A_0001;
const SALT_READS: u64 = 0x7E4A_0002;
const SALT_MEMORY: u64 = 0x7E4A_0003;
const SALT_MEMORY_READS: u64 = 0x7E4A_0004;

/// The stream shape at `scale`: 10⁴ metrics at full scale. The store's
/// sketches then fit in a core's cache and a repetition takes tens of
/// milliseconds, so a run holds hundreds of repetitions; at 10⁵ metrics
/// a run held a dozen and its rates spread three times as much.
pub fn workload(scale: Scale) -> TenantWorkload {
    match scale {
        Scale::Full => shape(10, 1_000),
        Scale::Smoke => shape(4, 128),
    }
}

/// The stream shape with `tenants` × `metrics_per_tenant` metrics,
/// Zipf θ = [`THETA`] and [`EXTRA_PER_METRIC`] updates per metric after
/// the registration pass.
pub fn shape(tenants: u32, metrics_per_tenant: u32) -> TenantWorkload {
    let metrics = u64::from(tenants) * u64::from(metrics_per_tenant);
    TenantWorkload {
        tenants,
        metrics_per_tenant,
        theta: THETA,
        extra_updates: EXTRA_PER_METRIC * metrics,
    }
}

/// The per-shard budget of `tenant-mixed` on stream `w`: the full-scale
/// constant, scaled by metric count.
pub fn mixed_budget(w: &TenantWorkload) -> u64 {
    let full = workload(Scale::Full).total_metrics();
    MIXED_BUDGET_BYTES * w.total_metrics() / full
}

/// The stream of the untimed memory pass: 10⁵ metrics at full scale. A
/// timed store's resident-memory rise (about 1.6 to 1.9 MiB) varied by 4%
/// from seed to seed with the allocator's state; a 10⁵-metric pass's
/// (13 to 17 MiB) by less than 1%.
fn memory_shape(scale: Scale) -> TenantWorkload {
    match scale {
        Scale::Full => shape(100, 1_000),
        Scale::Smoke => workload(Scale::Smoke),
    }
}

/// Every update of the stream as `(key, item)`, in stream order.
pub fn generate(w: &TenantWorkload, seed: u64) -> Vec<(SketchKey, u64)> {
    let mut updates = Vec::with_capacity(usize::try_from(w.total_updates()).unwrap_or(0));
    w.visit(&mut StdRng::seed_from_u64(seed), |u| {
        updates.push((SketchKey::new(u.tenant, u.metric), u.item));
    });
    updates
}

fn global(w: &TenantWorkload, key: SketchKey) -> usize {
    usize::from(key.tenant) * w.metrics_per_tenant as usize + usize::from(key.metric)
}

fn key_of(w: &TenantWorkload, g: usize) -> SketchKey {
    let per = w.metrics_per_tenant as usize;
    SketchKey::new(
        u16::try_from(g / per).expect("tenant index fits u16"),
        u16::try_from(g % per).expect("metric index fits u16"),
    )
}

/// Plain dense max-registers per metric, fed by the same classification
/// rule and read through the same estimator function as the store.
struct Oracle {
    regs: Vec<u8>,
    seen: Vec<bool>,
}

impl Oracle {
    /// An empty oracle for `metrics` sketches.
    fn new(metrics: usize) -> Self {
        Oracle {
            regs: vec![0; metrics * M],
            seen: vec![false; metrics],
        }
    }

    /// Apply one item hash to metric `g`.
    fn observe(&mut self, g: usize, hash: u64) {
        let (bucket, rank) = classify_hash(hash, M);
        let r = &mut self.regs[g * M + usize::from(bucket)];
        *r = (*r).max(rank + 1);
        self.seen[g] = true;
    }

    /// The estimate of metric `g`, `None` before its first update.
    fn estimate(&self, g: usize) -> Option<f64> {
        self.seen[g].then(|| superloglog_estimate_from_registers(&self.regs[g * M..(g + 1) * M]))
    }
}

fn same(a: Option<f64>, b: Option<f64>) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

/// Read every metric back from `store` and compare with the oracle.
fn check_final<C: ColdTier>(
    w: &TenantWorkload,
    oracle: &Oracle,
    store: &mut ShardedStore<C>,
    out: &mut Outcome,
) {
    for g in 0..w.total_metrics() as usize {
        let got = store.estimate(key_of(w, g), &mut NoopRecorder);
        let want = oracle.estimate(g);
        if !same(got, want) {
            out.problem(format!(
                "metric {g}: store estimates {got:?}, oracle {want:?}"
            ));
        }
    }
}

/// Every final estimate of a store that applied `updates`, against the
/// oracle.
fn check_ingest<C: ColdTier>(
    w: &TenantWorkload,
    updates: &[(SketchKey, u64)],
    store: &mut ShardedStore<C>,
    out: &mut Outcome,
) {
    let hasher = SplitMix64::default();
    let mut oracle = Oracle::new(w.total_metrics() as usize);
    for &(key, item) in updates {
        oracle.observe(global(w, key), hasher.hash_u64(item));
    }
    check_final(w, &oracle, store, out);
}

/// A digest of a store's shape: bytes, residency, per-shard counters and
/// the eviction sequence.
fn store_digest<C: ColdTier>(store: &ShardedStore<C>) -> u64 {
    let mut words = vec![
        store.total_bytes(),
        store.resident() as u64,
        store.eviction_digest(),
    ];
    for s in store.stats() {
        words.extend([
            s.inserts,
            s.evictions,
            s.recoveries,
            s.promotions_packed,
            s.promotions_dense,
        ]);
    }
    fold(words)
}

/// Accounted bytes per resident sketch.
fn bytes_per_sketch<C: ColdTier>(store: &ShardedStore<C>) -> f64 {
    ratio(store.total_bytes() as f64, store.resident() as f64)
}

/// Per-shard store statistics summed, plus the insert skew.
struct StoreTotals {
    evictions: u64,
    recoveries: u64,
    spilled_bytes: u64,
    promotions_packed: u64,
    promotions_dense: u64,
    skew: f64,
}

fn totals<C: ColdTier>(store: &ShardedStore<C>) -> StoreTotals {
    let stats = store.stats();
    let inserts: Vec<f64> = stats.iter().map(|s| s.inserts as f64).collect();
    let mean = inserts.iter().sum::<f64>() / inserts.len() as f64;
    StoreTotals {
        evictions: stats.iter().map(|s| s.evictions).sum(),
        recoveries: stats.iter().map(|s| s.recoveries).sum(),
        spilled_bytes: stats.iter().map(|s| s.spilled_bytes).sum(),
        promotions_packed: stats.iter().map(|s| s.promotions_packed).sum(),
        promotions_dense: stats.iter().map(|s| s.promotions_dense).sum(),
        skew: ratio(inserts.iter().copied().fold(0.0, f64::max), mean),
    }
}

/// Isolated per-update timings of the pure functions under the store,
/// replayed over the stream's own items.
struct SketchLadder {
    gen_ns_per_update: f64,
    splitmix_ns: f64,
    classify_ns: f64,
    tiered_observe_ns: f64,
    /// The flat register arrays the tiered replay left behind.
    flat: Vec<TieredRegisters>,
}

fn sketch_ladder(w: &TenantWorkload, seed: u64, updates: &[(SketchKey, u64)]) -> SketchLadder {
    let gen_rounds: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            w.visit(&mut StdRng::seed_from_u64(seed), |u| {
                black_box(u);
            });
            elapsed_ns(start) as f64 / w.total_updates() as f64
        })
        .collect();
    let hasher = SplitMix64::default();
    let items: Vec<u64> = updates.iter().map(|u| u.1).collect();
    let splitmix_ns = ns_per_op(&items, 5, |&x| {
        black_box(hasher.hash_u64(black_box(x)));
    });
    let hashes: Vec<u64> = items.iter().map(|&x| hasher.hash_u64(x)).collect();
    let classify_ns = ns_per_op(&hashes, 5, |&h| {
        black_box(classify_hash(black_box(h), M));
    });
    let cells: Vec<(usize, usize, u8)> = updates
        .iter()
        .zip(&hashes)
        .map(|(&(key, _), &h)| {
            let (bucket, rank) = classify_hash(h, M);
            (global(w, key), usize::from(bucket), rank + 1)
        })
        .collect();
    let mut flat = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..5 {
        flat = vec![TieredRegisters::new(M); w.total_metrics() as usize];
        let start = Instant::now();
        for &(g, bucket, rank) in &cells {
            black_box(flat[g].observe(bucket, rank));
        }
        rounds.push(elapsed_ns(start) as f64 / cells.len() as f64);
    }
    SketchLadder {
        gen_ns_per_update: median(&gen_rounds),
        splitmix_ns,
        classify_ns,
        tiered_observe_ns: median(&rounds),
        flat,
    }
}

fn new_store(budget: Option<u64>) -> Result<ShardedStore, String> {
    let mut cfg = ShardConfig::new(SHARDS, M);
    cfg.budget_bytes = budget;
    ShardedStore::new(cfg).map_err(|e| e.to_string())
}

fn sizes(scale: Scale, out: &mut Outcome) {
    let w = workload(scale);
    out.sizes.extend([
        ("tenants", w.tenants.to_string()),
        ("metrics_per_tenant", w.metrics_per_tenant.to_string()),
        ("metrics", w.total_metrics().to_string()),
        ("updates", w.total_updates().to_string()),
        ("theta", w.theta.to_string()),
        ("shards", SHARDS.to_string()),
        ("m", M.to_string()),
        (
            "memory_pass_metrics",
            memory_shape(scale).total_metrics().to_string(),
        ),
    ]);
}

/// Nanoseconds per [`BATCH`] of updates (the last batch may be short).
fn ingest_rep<C: ColdTier>(
    updates: &[(SketchKey, u64)],
    store: &mut ShardedStore<C>,
    rec: &mut dyn Recorder,
    observe: &Span,
) -> Vec<u64> {
    let hasher = SplitMix64::default();
    let mut batch_ns = Vec::with_capacity(updates.len() / BATCH + 1);
    for chunk in updates.chunks(BATCH) {
        let t = Instant::now();
        for &(key, item) in chunk {
            let hash = hasher.hash_u64(item);
            observe.time(|| store.observe_item(key, hash, &mut *rec));
        }
        batch_ns.push(elapsed_ns(t));
    }
    batch_ns
}

/// The fastest traced repetition: its total and its layer figures.
struct TracedBest<T> {
    total_ns: u64,
    layers: T,
}

/// Keep `layers` if `total_ns` beats the repetition kept so far.
fn keep_fastest<T>(best: &mut Option<TracedBest<T>>, total_ns: u64, layers: T) {
    if best.as_ref().is_none_or(|b| total_ns < b.total_ns) {
        *best = Some(TracedBest { total_ns, layers });
    }
}

/// The `tenant-ingest` workload.
pub fn ingest(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let w = workload(plan.scale);
    w.validate()?;
    sizes(plan.scale, out);
    let seed = sub_seed(plan.seed, SALT_STREAM);
    let (mut setup, updates) = Setup::run(|| generate(&w, seed));
    let n = updates.len() as u64;

    let rise = memory_pass(plan, false, out)?;
    out.set("peak_rss_rise_mib", rise);

    let mut best = Best::default();
    let mut plain_fastest = u64::MAX;
    let mut traced = None;
    let mut reps = Reps::start(plan);
    while let Some(trace) = reps.next_rep() {
        let mut store = new_store(None)?;
        if trace {
            let span = Span::new(true);
            let mut rec = CountingRecorder::default();
            let batches = ingest_rep(&updates, &mut store, &mut rec, &span);
            if rec.counter(names::SHARD_OBSERVE) != n {
                out.problem("traced recorder missed observe events".to_string());
            }
            let layers = (span.mean_ns(), totals(&store));
            keep_fastest(&mut traced, batches.iter().sum(), layers);
            out.digest(true, store_digest(&store));
        } else {
            let batches = ingest_rep(&updates, &mut store, &mut NoopRecorder, &Span::new(false));
            plain_fastest = plain_fastest.min(batches.iter().sum());
            best.update(&batches);
            let checked = out.digests.is_empty();
            out.digest(false, store_digest(&store));
            if checked {
                out.set("bytes_per_sketch", bytes_per_sketch(&store));
                check_ingest(&w, &updates, &mut store, out);
                // Every estimate must equal the exact registers' one.
                out.set("estimate_recall", 1.0);
            }
        }
        out.tally(n, 0);
        setup.again();
    }
    let setup_s = setup.median_s();
    out.set("setup_s", setup_s);

    let rate = n as f64 / best.total_s();
    out.set("ops_per_s", rate);
    out.set("update_per_s", rate);
    // Latency of one full batch (a short last batch is left out), over
    // per-batch minima: batch costs are bimodal by content (the
    // registration pass creates sketches), so a single repetition's
    // percentile would sit between the modes and move with noise.
    let full = updates.len() / BATCH;
    out.set("op_p50_us", best.quantile_us(full, 0.5));
    out.set("op_p90_us", best.quantile_us(full, 0.9));

    if let (true, Some(t)) = (plan.trace, traced) {
        let ladder = sketch_ladder(&w, seed, &updates);
        let (observe_ns, store_totals) = t.layers;
        let e2e_ns = plain_fastest as f64;
        store_ladder_metrics(out, &ladder, observe_ns, setup_s, n);
        store_totals_metrics(out, &store_totals);
        out.set("trace.overhead_share", t.total_ns as f64 / e2e_ns - 1.0);
        let ladder_ns = (ladder.splitmix_ns + observe_ns) * n as f64;
        out.set("trace.unattributed_share", 1.0 - ladder_ns / e2e_ns);
    }
    Ok(())
}

fn store_ladder_metrics(
    out: &mut Outcome,
    ladder: &SketchLadder,
    observe_ns: f64,
    setup_s: f64,
    inputs: u64,
) {
    out.set("workload.gen_ns_per_update", ladder.gen_ns_per_update);
    out.set("workload.gen_ns_per_item", setup_s * 1e9 / inputs as f64);
    out.set("sketch.splitmix_ns", ladder.splitmix_ns);
    out.set("sketch.classify_ns", ladder.classify_ns);
    out.set("sketch.tiered_observe_ns", ladder.tiered_observe_ns);
    out.set("shard.observe_ns", observe_ns);
    out.set(
        "shard.bookkeeping_ns",
        observe_ns - ladder.tiered_observe_ns - ladder.classify_ns,
    );
}

fn store_totals_metrics(out: &mut Outcome, t: &StoreTotals) {
    out.set("sketch.promotions_packed", t.promotions_packed as f64);
    out.set("sketch.promotions_dense", t.promotions_dense as f64);
    out.set("shard.evictions", t.evictions as f64);
    out.set("shard.recoveries", t.recoveries as f64);
    out.set("shard.spilled_bytes", t.spilled_bytes as f64);
    out.set("shard.skew", t.skew);
}

/// One operation of `tenant-mixed`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Apply an item to a sketch.
    Update(SketchKey, u64),
    /// Read a sketch's estimate.
    Read(SketchKey),
}

/// The stream with one Zipf-drawn read after every [`READ_EVERY`]th
/// update. During the registration pass a draw beyond the metrics
/// registered so far wraps onto them, so no read finds an empty store.
fn mixed_ops(w: &TenantWorkload, updates: &[(SketchKey, u64)], seed: u64) -> Vec<Op> {
    let total = w.total_metrics() as usize;
    let zipf = Zipf::new(total, w.theta);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(updates.len() + updates.len() / READ_EVERY);
    for (i, &(key, item)) in updates.iter().enumerate() {
        ops.push(Op::Update(key, item));
        if (i + 1) % READ_EVERY == 0 {
            let registered = (i + 1).min(total);
            let g = (zipf.sample(&mut rng) - 1) % registered;
            ops.push(Op::Read(key_of(w, g)));
        }
    }
    ops
}

/// Reads among `ops`.
fn rep_reads(ops: &[Op]) -> usize {
    ops.iter().filter(|op| matches!(op, Op::Read(_))).count()
}

/// Operations per timed block of `tenant-mixed`.
const MIXED_BLOCK: usize = 128;

/// One `tenant-mixed` repetition's timings and outputs.
struct MixedRep {
    /// Nanoseconds per [`MIXED_BLOCK`] operations (the last may be short).
    block_ns: Vec<u64>,
    /// The part of each block spent outside reads.
    block_update_ns: Vec<u64>,
    /// Nanoseconds of each read.
    read_ns: Vec<u64>,
    reads_recovering: u64,
    digest: u64,
}

impl MixedRep {
    fn total_ns(&self) -> u64 {
        self.block_ns.iter().sum()
    }
}

fn mixed_rep<C: ColdTier + RecoverCount>(
    ops: &[Op],
    store: &mut ShardedStore<C>,
    rec: &mut dyn Recorder,
    observe: &Span,
    mut keep_reads: Option<&mut Vec<Option<f64>>>,
) -> MixedRep {
    let hasher = SplitMix64::default();
    let mut h = Fnv1a::new();
    let blocks = ops.len() / MIXED_BLOCK + 1;
    let (mut block_ns, mut block_update_ns) =
        (Vec::with_capacity(blocks), Vec::with_capacity(blocks));
    let mut read_ns = Vec::with_capacity(ops.len() / (READ_EVERY + 1) + 1);
    let mut reads_recovering = 0;
    for block in ops.chunks(MIXED_BLOCK) {
        let start = Instant::now();
        let mut in_reads = 0;
        for op in block {
            match *op {
                Op::Update(key, item) => {
                    let hash = hasher.hash_u64(item);
                    observe.time(|| store.observe_item(key, hash, &mut *rec));
                }
                Op::Read(key) => {
                    let recovered = store.cold().recovered();
                    let t = Instant::now();
                    let est = store.estimate(key, &mut *rec);
                    let ns = elapsed_ns(t);
                    read_ns.push(ns);
                    in_reads += ns;
                    if store.cold().recovered() > recovered {
                        reads_recovering += 1;
                    }
                    h.update(&est.map_or(u64::MAX, f64::to_bits).to_le_bytes());
                    if let Some(reads) = keep_reads.as_deref_mut() {
                        reads.push(est);
                    }
                }
            }
        }
        let total = elapsed_ns(start);
        block_ns.push(total);
        block_update_ns.push(total.saturating_sub(in_reads));
    }
    h.update(&store_digest(store).to_le_bytes());
    MixedRep {
        block_ns,
        block_update_ns,
        read_ns,
        reads_recovering,
        digest: h.finish(),
    }
}

/// The first repetition's every read, and every final estimate, against
/// the oracle replayed over the same operations.
fn check_mixed<C: ColdTier>(
    w: &TenantWorkload,
    ops: &[Op],
    reads: &[Option<f64>],
    store: &mut ShardedStore<C>,
    out: &mut Outcome,
) {
    let hasher = SplitMix64::default();
    let mut oracle = Oracle::new(w.total_metrics() as usize);
    let mut reads = reads.iter();
    for (j, op) in ops.iter().enumerate() {
        match *op {
            Op::Update(key, item) => oracle.observe(global(w, key), hasher.hash_u64(item)),
            Op::Read(key) => {
                let want = oracle.estimate(global(w, key));
                let got = reads.next().copied().flatten();
                if want.is_none() || !same(got, want) {
                    out.problem(format!("op {j}: read {got:?}, oracle {want:?}"));
                }
            }
        }
    }
    check_final(w, &oracle, store, out);
}

fn mixed_store<C: ColdTier>(w: &TenantWorkload, cold: C) -> Result<ShardedStore<C>, String> {
    ShardedStore::with_cold_tier(
        ShardConfig::new(SHARDS, M).with_budget(mixed_budget(w)),
        cold,
    )
    .map_err(|e| e.to_string())
}

/// The peak resident MiB that one untimed, checked pass over the
/// [`memory_shape`] stream adds above its inputs: `tenant-mixed`'s
/// operations on its budgeted store when `mixed`, else `tenant-ingest`'s
/// updates on an unbudgeted one.
fn memory_pass(plan: &Plan, mixed: bool, out: &mut Outcome) -> Result<f64, String> {
    let w = memory_shape(plan.scale);
    let updates = generate(&w, sub_seed(plan.seed, SALT_MEMORY));
    if !mixed {
        let rss = RssMark::set()?;
        let mut store = new_store(None)?;
        ingest_rep(&updates, &mut store, &mut NoopRecorder, &Span::new(false));
        let rise = rss.rise_mib()?;
        out.tally(updates.len() as u64, 0);
        check_ingest(&w, &updates, &mut store, out);
        return Ok(rise);
    }
    let ops = mixed_ops(&w, &updates, sub_seed(plan.seed, SALT_MEMORY_READS));
    // Made resident before the mark, so not counted as the store's.
    let mut reads: Vec<Option<f64>> = vec![Some(0.0); ops.len() - updates.len()];
    reads.clear();
    let rss = RssMark::set()?;
    let mut store = mixed_store(&w, MemoryColdTier::new())?;
    let noop = Span::new(false);
    mixed_rep(&ops, &mut store, &mut NoopRecorder, &noop, Some(&mut reads));
    let rise = rss.rise_mib()?;
    out.tally(ops.len() as u64, 0);
    check_mixed(&w, &ops, &reads, &mut store, out);
    Ok(rise)
}

/// The `tenant-mixed` workload.
pub fn mixed(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let w = workload(plan.scale);
    w.validate()?;
    sizes(plan.scale, out);
    out.sizes.extend([
        ("budget_bytes_per_shard", mixed_budget(&w).to_string()),
        ("read_every", READ_EVERY.to_string()),
    ]);
    let seed = sub_seed(plan.seed, SALT_STREAM);
    let read_seed = sub_seed(plan.seed, SALT_READS);
    let (mut setup, (updates, ops)) = Setup::run(|| {
        let updates = generate(&w, seed);
        let ops = mixed_ops(&w, &updates, read_seed);
        (updates, ops)
    });
    let n_ops = ops.len() as u64;
    let n_updates = updates.len() as u64;
    let mut reads = Vec::with_capacity(ops.len() - updates.len());
    let rise = memory_pass(plan, true, out)?;
    out.set("peak_rss_rise_mib", rise);

    let (mut blocks, mut updates_best, mut reads_best) =
        (Best::default(), Best::default(), Best::default());
    let mut plain_fastest = u64::MAX;
    let mut traced = None;
    let mut reps = Reps::start(plan);
    while let Some(trace) = reps.next_rep() {
        if trace {
            let mut store = mixed_store(&w, TimedCold::new(MemoryColdTier::new()))?;
            let span = Span::new(true);
            let mut rec = CountingRecorder::default();
            let rep = mixed_rep(&ops, &mut store, &mut rec, &span, None);
            let t = totals(&store);
            if rec.counter(names::SHARD_EVICT) != t.evictions
                || rec.counter(names::SHARD_RECOVER) != t.recoveries
            {
                out.problem("traced recorder disagrees with the store's counters".to_string());
            }
            out.digest(true, rep.digest);
            let cold = store.cold();
            let layers = MixedLayers {
                observe_ns: span.mean_ns(),
                estimate_ns: rep.read_ns.iter().sum::<u64>() as f64 / rep.read_ns.len() as f64,
                read_recover_share: ratio(rep.reads_recovering as f64, rep.read_ns.len() as f64),
                spill_ns: cold.spill.mean_ns(),
                recover_ns: cold.recover.mean_ns(),
                totals: t,
            };
            keep_fastest(&mut traced, rep.total_ns(), layers);
        } else {
            let mut store = mixed_store(&w, MemoryColdTier::new())?;
            let checked = out.digests.is_empty();
            let rep = mixed_rep(
                &ops,
                &mut store,
                &mut NoopRecorder,
                &Span::new(false),
                checked.then_some(&mut reads),
            );
            out.digest(false, rep.digest);
            plain_fastest = plain_fastest.min(rep.total_ns());
            blocks.update(&rep.block_ns);
            updates_best.update(&rep.block_update_ns);
            reads_best.update(&rep.read_ns);
            if checked {
                out.set("bytes_per_sketch", bytes_per_sketch(&store));
                check_mixed(&w, &ops, &reads, &mut store, out);
                // Every read must equal the exact registers' estimate.
                out.set("estimate_recall", 1.0);
            }
        }
        out.tally(n_ops, 0);
        setup.again();
    }
    let setup_s = setup.median_s();
    out.set("setup_s", setup_s);

    out.set("ops_per_s", n_ops as f64 / blocks.total_s());
    out.set("update_per_s", n_updates as f64 / updates_best.total_s());
    let n_reads = rep_reads(&ops);
    out.set("op_p50_us", reads_best.quantile_us(n_reads, 0.5));
    out.set("op_p90_us", reads_best.quantile_us(n_reads, 0.9));

    if let (true, Some(t)) = (plan.trace, traced) {
        let ladder = sketch_ladder(&w, seed, &updates);
        let l = t.layers;
        let e2e_ns = plain_fastest as f64;
        store_ladder_metrics(out, &ladder, l.observe_ns, setup_s, n_ops);
        read_ladder_metrics(out, &ladder.flat);
        store_totals_metrics(out, &l.totals);
        out.set("shard.estimate_ns", l.estimate_ns);
        out.set("shard.read_recover_share", l.read_recover_share);
        out.set("cold.spill_ns", l.spill_ns);
        out.set("cold.recover_ns", l.recover_ns);
        out.set("trace.overhead_share", t.total_ns as f64 / e2e_ns - 1.0);
        let n_reads = (n_ops - n_updates) as f64;
        let ladder_ns =
            (ladder.splitmix_ns + l.observe_ns) * n_updates as f64 + l.estimate_ns * n_reads;
        out.set("trace.unattributed_share", 1.0 - ladder_ns / e2e_ns);
    }
    Ok(())
}

/// Layer figures of one traced `tenant-mixed` repetition.
struct MixedLayers {
    observe_ns: f64,
    estimate_ns: f64,
    read_recover_share: f64,
    spill_ns: f64,
    recover_ns: f64,
    totals: StoreTotals,
}

/// Isolated timings of the read and spill paths' pure functions over a
/// sample of the final sketches.
fn read_ladder_metrics(out: &mut Outcome, flat: &[TieredRegisters]) {
    let step = (flat.len() / READ_SAMPLE).max(1);
    let sample: Vec<TieredRegisters> = flat.iter().step_by(step).cloned().collect();
    out.set(
        "sketch.register_vec_ns",
        ns_per_op(&sample, 5, |r| {
            black_box(r.register_vec());
        }),
    );
    let vecs: Vec<Vec<u8>> = sample.iter().map(TieredRegisters::register_vec).collect();
    out.set(
        "sketch.sll_estimate_ns",
        ns_per_op(&vecs, 5, |v| {
            black_box(superloglog_estimate_from_registers(v));
        }),
    );
    let compressed: Vec<TieredRegisters> = sample
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.compress();
            r
        })
        .collect();
    out.set(
        "sketch.wire_encode_ns",
        ns_per_op(&compressed, 5, |r| {
            black_box(r.to_wire());
        }),
    );
    let wires: Vec<Vec<u8>> = compressed.iter().map(TieredRegisters::to_wire).collect();
    out.set(
        "sketch.wire_decode_ns",
        ns_per_op(&wires, 5, |b| {
            black_box(TieredRegisters::from_wire(b).ok());
        }),
    );
}
