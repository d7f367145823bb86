//! The `overlay-dhs` workload: DHS inserts and counts over a Chord ring
//! and a lossy simulated network.
//!
//! Phase 1 inserts 4 metrics × 25 000 MD4-hashed items from random
//! origin nodes with `insert_via`; phase 2 runs single-metric `count_via`
//! and 4-metric `count_multi_via` calls from random origins. Every
//! exchange crosses a `SimTransport` with seeded 1% loss and an 8-attempt
//! retry policy, so retries are common and an exchange that runs out of
//! them is not expected. The sharded store is not involved.
//!
//! The ring has 256 nodes, and the same node ids for every seed: the seed
//! varies the items, origins, losses and probes. A repetition then takes
//! about a fifth of a second, so a run holds about 130. With
//! 1024 nodes and 4 × 10⁵ items (a dozen repetitions per run) the rates
//! and count latencies spread by 0.23 to 0.32 (IQR ÷ median over five
//! seeds), and a ring drawn from the seed made count latency and stored
//! bytes vary from seed to seed by several percent.

use std::hint::black_box;
use std::time::Instant;

use dhs_core::{CountResult, Dhs, DhsConfig, EstimatorKind, MetricId, RetryPolicy};
use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;
use dhs_dht::ring::{Ring, RingConfig};
use dhs_net::{FaultPlane, SimConfig, SimTransport};
use dhs_sketch::{superloglog_estimate_from_registers, ItemHasher, Md4Hasher, SplitMix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{elapsed_ns, ns_per_op, ratio, Best};
use crate::trace::{Span, TracedOverlay, TracedTransport};
use crate::{fold, sub_seed, Outcome, Plan, Reps, RssMark, Scale, Setup};

/// Registers per distributed sketch. At m = 64 the default `lim` = 5
/// probes find every set bit at this load (for every seed tried); at
/// m = 512 most counts miss some (§4.1), as they do at m = 64 on 1024
/// nodes with 25 000 items per metric.
pub const M: usize = 64;
/// Metrics inserted and counted.
pub const METRICS: [MetricId; 4] = [1, 2, 3, 4];
/// Per-copy message loss probability.
pub const LOSS: f64 = 0.01;
/// Attempts per exchange (first try plus retries). An attempt fails with
/// probability about 0.02 (request or reply lost), so all 8 fail with
/// probability about 3·10⁻¹⁴: no exchange of a run is expected to run out
/// of retries. With 3 attempts about 3 in 4·10⁵ inserts did, and which
/// ones depends on the seed.
pub const ATTEMPTS: u32 = 8;

/// Seeds the ring's node ids, the same for every run.
const RING_SEED: u64 = 0x0D45_0000;
const SALT_SETUP: u64 = 0x0D45_0001;
const SALT_NET: u64 = 0x0D45_0002;
const SALT_OPS: u64 = 0x0D45_0003;

/// Sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Overlay nodes.
    pub nodes: usize,
    /// Distinct items inserted per metric.
    pub items_per_metric: u64,
    /// Single-metric counts.
    pub single_counts: usize,
    /// 4-metric counts.
    pub multi_counts: usize,
}

/// The sizes at `scale`.
pub fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nodes: 256,
            items_per_metric: 25_000,
            single_counts: 128,
            multi_counts: 32,
        },
        Scale::Smoke => Sizes {
            nodes: 64,
            items_per_metric: 2_000,
            single_counts: 20,
            multi_counts: 5,
        },
    }
}

/// The DHS configuration: k = 24, m = 64, lim = 5, super-LogLog.
pub fn dhs_config() -> DhsConfig {
    DhsConfig {
        k: 24,
        m: M,
        lim: 5,
        estimator: EstimatorKind::SuperLogLog,
        ..DhsConfig::default()
    }
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        faults: FaultPlane::lossy(LOSS),
        retry: RetryPolicy::new(ATTEMPTS, 50, 400),
        ..SimConfig::default()
    }
}

/// Generated inputs: the empty ring and every operation's arguments.
struct Inputs {
    ring: Ring,
    /// `(metric, item, origin)` per insert.
    inserts: Vec<(MetricId, u64, u64)>,
    /// `(metric, origin)` per single-metric count.
    singles: Vec<(MetricId, u64)>,
    /// Origin per 4-metric count.
    multis: Vec<u64>,
}

fn setup(s: &Sizes, seed: u64) -> Inputs {
    let ring = Ring::build(
        s.nodes,
        RingConfig::default(),
        &mut StdRng::seed_from_u64(RING_SEED),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = ring.alive_ids().to_vec();
    let origin = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())];
    let mut inserts = Vec::with_capacity(s.items_per_metric as usize * METRICS.len());
    for i in 0..s.items_per_metric {
        for &metric in &METRICS {
            // Distinct per (seed, metric, i): the mix is a bijection.
            let item = SplitMix64::mix(seed ^ (u64::from(metric) << 32 | i));
            inserts.push((metric, item, origin(&mut rng)));
        }
    }
    let singles = (0..s.single_counts)
        .map(|j| (METRICS[j % METRICS.len()], origin(&mut rng)))
        .collect();
    let multis = (0..s.multi_counts).map(|_| origin(&mut rng)).collect();
    Inputs {
        ring,
        inserts,
        singles,
        multis,
    }
}

/// Exact per-metric registers: the max rank + 1 per vector over every
/// inserted item. A count can only ever find bits that were inserted.
struct Oracle {
    regs: Vec<[u8; M]>,
    /// The estimate of each metric's exact registers.
    estimates: Vec<f64>,
}

impl Oracle {
    fn build(dhs: &Dhs, inserts: &[(MetricId, u64, u64)]) -> Self {
        let mut regs = vec![[0u8; M]; METRICS.len()];
        for &(metric, item, _) in inserts {
            let (vector, rank) = dhs.classify(Md4Hasher.hash_u64(item));
            let r = &mut regs[metric_index(metric)][usize::from(vector)];
            *r = (*r).max(u8::try_from(rank + 1).expect("rank fits u8"));
        }
        let estimates = regs
            .iter()
            .map(|r| superloglog_estimate_from_registers(r))
            .collect();
        Oracle { regs, estimates }
    }
}

fn metric_index(metric: MetricId) -> usize {
    METRICS
        .iter()
        .position(|&m| m == metric)
        .expect("counted metric is one of METRICS")
}

/// Inserts per timed block of phase 1.
const INSERT_BLOCK: usize = 256;

struct InsertPhase {
    /// Nanoseconds per [`INSERT_BLOCK`] inserts (the last may be short).
    block_ns: Vec<u64>,
    failed: u64,
    ledger: CostLedger,
}

impl InsertPhase {
    fn ns(&self) -> u64 {
        self.block_ns.iter().sum()
    }
}

fn insert_phase<O: Overlay>(
    dhs: &Dhs,
    ring: &mut O,
    net: &mut TracedTransport<SimTransport>,
    inserts: &[(MetricId, u64, u64)],
    rng: &mut StdRng,
    calls: &Span,
) -> InsertPhase {
    let mut ledger = CostLedger::new();
    let mut failed = 0;
    let mut block_ns = Vec::with_capacity(inserts.len() / INSERT_BLOCK + 1);
    for block in inserts.chunks(INSERT_BLOCK) {
        let start = Instant::now();
        for &(metric, item, origin) in block {
            let key = Md4Hasher.hash_u64(item);
            calls.time(|| dhs.insert_via(ring, net, metric, key, origin, rng, &mut ledger));
            // One store exchange per insert: a final timeout means the
            // tuple was lost after every retry.
            if net.last_failed() {
                failed += 1;
            }
        }
        block_ns.push(elapsed_ns(start));
    }
    InsertPhase {
        block_ns,
        failed,
        ledger,
    }
}

struct CountPhase {
    single_ns: Vec<u64>,
    multi_ns: Vec<u64>,
    results: Vec<Vec<CountResult>>,
    ledger: CostLedger,
}

fn count_phase<O: Overlay>(
    dhs: &Dhs,
    ring: &O,
    net: &mut TracedTransport<SimTransport>,
    inputs: &Inputs,
    rng: &mut StdRng,
) -> CountPhase {
    let mut ledger = CostLedger::new();
    let mut results = Vec::with_capacity(inputs.singles.len() + inputs.multis.len());
    let mut single_ns = Vec::with_capacity(inputs.singles.len());
    for &(metric, origin) in &inputs.singles {
        let start = Instant::now();
        let r = dhs.count_via(ring, net, metric, origin, rng, &mut ledger);
        single_ns.push(elapsed_ns(start));
        results.push(vec![r]);
    }
    let mut multi_ns = Vec::with_capacity(inputs.multis.len());
    for &origin in &inputs.multis {
        let start = Instant::now();
        let r = dhs.count_multi_via(ring, net, &METRICS, origin, rng, &mut ledger);
        multi_ns.push(elapsed_ns(start));
        results.push(r);
    }
    CountPhase {
        single_ns,
        multi_ns,
        results,
        ledger,
    }
}

/// Everything one repetition produced.
struct Rep {
    insert: InsertPhase,
    count: CountPhase,
    inserts: u64,
    net_calls: u64,
    net_timeouts: u64,
    net_retries: u64,
}

impl Rep {
    fn count_ns(&self) -> u64 {
        self.count
            .single_ns
            .iter()
            .chain(&self.count.multi_ns)
            .sum()
    }

    fn total_ns(&self) -> u64 {
        self.insert.ns() + self.count_ns()
    }

    fn counts(&self) -> u64 {
        self.count.results.len() as u64
    }

    fn ops(&self) -> u64 {
        self.inserts + self.counts()
    }

    /// Estimates, ledger charges and transport counts, folded.
    fn digest(&self) -> u64 {
        let ledgers = [&self.insert.ledger, &self.count.ledger]
            .into_iter()
            .flat_map(|l| [l.hops(), l.messages(), l.bytes(), l.dropped_messages()]);
        let estimates = self
            .count
            .results
            .iter()
            .flatten()
            .map(|r| r.estimate.to_bits());
        fold(
            ledgers
                .chain([
                    self.insert.failed,
                    self.net_calls,
                    self.net_timeouts,
                    self.net_retries,
                ])
                .chain(estimates),
        )
    }
}

/// Layer figures of one traced repetition.
struct LayerRep {
    insert_call_ns: u64,
    route_insert: (u64, u64),
    put: (u64, u64),
    exchange_insert: (u64, u64),
    route_count: (u64, u64),
    exchange_count: (u64, u64),
    fetches: u64,
    fetch_hits: u64,
    navs: u64,
    fetch_ns: f64,
    nav_ns: f64,
}

fn new_net(seed: u64, timed: bool) -> TracedTransport<SimTransport> {
    TracedTransport::new(SimTransport::new(sim_config(seed)), timed)
}

fn finish_rep(
    insert: InsertPhase,
    count: CountPhase,
    inserts: usize,
    net: &TracedTransport<SimTransport>,
) -> Rep {
    Rep {
        insert,
        count,
        inserts: inserts as u64,
        net_calls: net.calls(),
        net_timeouts: net.timeouts(),
        net_retries: net.retries(),
    }
}

fn plain_rep(dhs: &Dhs, inputs: &Inputs, net_seed: u64, ops_seed: u64) -> (Rep, Ring) {
    let mut ring = inputs.ring.clone();
    let mut net = new_net(net_seed, false);
    let mut rng = StdRng::seed_from_u64(ops_seed);
    let off = Span::new(false);
    let insert = insert_phase(dhs, &mut ring, &mut net, &inputs.inserts, &mut rng, &off);
    let count = count_phase(dhs, &ring, &mut net, inputs, &mut rng);
    (finish_rep(insert, count, inputs.inserts.len(), &net), ring)
}

fn traced_rep(dhs: &Dhs, inputs: &Inputs, net_seed: u64, ops_seed: u64) -> (Rep, LayerRep) {
    let mut ring = TracedOverlay::new(inputs.ring.clone());
    let mut net = new_net(net_seed, true);
    let mut rng = StdRng::seed_from_u64(ops_seed);
    let calls = Span::new(true);
    let insert = insert_phase(dhs, &mut ring, &mut net, &inputs.inserts, &mut rng, &calls);
    let route_insert = (ring.route.calls(), ring.route.ns());
    let exchange_insert = (net.exchange.calls(), net.exchange.ns());
    let count = count_phase(dhs, &ring, &mut net, inputs, &mut rng);
    let layers = LayerRep {
        insert_call_ns: calls.ns(),
        route_insert,
        put: (ring.put.calls(), ring.put.ns()),
        exchange_insert,
        route_count: (
            ring.route.calls() - route_insert.0,
            ring.route.ns() - route_insert.1,
        ),
        exchange_count: (
            net.exchange.calls() - exchange_insert.0,
            net.exchange.ns() - exchange_insert.1,
        ),
        fetches: ring.fetch.calls(),
        fetch_hits: ring.fetch_hits(),
        navs: ring.nav.calls(),
        fetch_ns: ring.fetch.mean_ns(),
        nav_ns: ring.nav.mean_ns(),
    };
    (
        finish_rep(insert, count, inputs.inserts.len(), &net),
        layers,
    )
}

/// A count's registers as the estimator functions take them.
fn registers_u8(r: &CountResult) -> Vec<u8> {
    r.registers
        .iter()
        .map(|&x| u8::try_from(x).unwrap_or(u8::MAX))
        .collect()
}

/// Check every count of the checked repetition: the metrics asked for,
/// one register per vector, no register above the oracle's (a count
/// cannot find a bit nobody inserted), and the estimate equal, bit for
/// bit, to the estimator applied to the registers. Sets
/// `estimate_recall`: the mean over the counted estimates of each one ÷
/// the estimate of its metric's exact registers (at most 1, as the
/// estimator never falls when a register rises).
fn judge(results: &[Vec<CountResult>], inputs: &Inputs, oracle: &Oracle, out: &mut Outcome) {
    let (mut recall, mut estimates) = (0.0, 0.0);
    for (op, rs) in results.iter().enumerate() {
        let asked: Vec<MetricId> = match inputs.singles.get(op) {
            Some(&(metric, _)) => vec![metric],
            None => METRICS.to_vec(),
        };
        let got: Vec<MetricId> = rs.iter().map(|r| r.metric).collect();
        if got != asked {
            out.problem(format!("count {op}: results for {got:?}, asked {asked:?}"));
            continue;
        }
        for r in rs {
            if r.registers.len() != M {
                out.problem(format!("count {op}: {} registers", r.registers.len()));
                continue;
            }
            let metric = metric_index(r.metric);
            recall += r.estimate / oracle.estimates[metric];
            estimates += 1.0;
            let exact = &oracle.regs[metric];
            if let Some(v) = (0..M).find(|&v| r.registers[v] > u32::from(exact[v])) {
                out.problem(format!(
                    "count {op} metric {}: vector {v} register {} above the inserted maximum {}",
                    r.metric, r.registers[v], exact[v]
                ));
            }
            let want = superloglog_estimate_from_registers(&registers_u8(r));
            if !r.estimate.is_finite() || r.estimate.to_bits() != want.to_bits() {
                out.problem(format!(
                    "count {op} metric {}: estimate {} but its registers give {want}",
                    r.metric, r.estimate
                ));
            }
        }
    }
    out.set("estimate_recall", ratio(recall, estimates));
}

/// The `overlay-dhs` workload.
pub fn run(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let s = sizes(plan.scale);
    let dhs = Dhs::new(dhs_config()).map_err(|e| format!("invalid DHS config: {e:?}"))?;
    let setup_seed = sub_seed(plan.seed, SALT_SETUP);
    let (mut setup_timer, inputs) = Setup::run(|| setup(&s, setup_seed));
    let cfg = dhs.config();
    out.sizes.extend([
        ("nodes", s.nodes.to_string()),
        ("metrics", METRICS.len().to_string()),
        ("items_per_metric", s.items_per_metric.to_string()),
        ("single_counts", s.single_counts.to_string()),
        ("multi_counts", s.multi_counts.to_string()),
        ("k", cfg.k.to_string()),
        ("m", cfg.m.to_string()),
        ("lim", cfg.lim.to_string()),
        ("loss", LOSS.to_string()),
        ("attempts", ATTEMPTS.to_string()),
    ]);
    let net_seed = sub_seed(plan.seed, SALT_NET);
    let ops_seed = sub_seed(plan.seed, SALT_OPS);

    let n_ops = inputs.inserts.len() + inputs.singles.len() + inputs.multis.len();
    let oracle = Oracle::build(&dhs, &inputs.inserts);
    let mut checked_registers: Vec<Vec<u8>> = Vec::new();
    let (mut blocks, mut singles, mut multis) = (Best::default(), Best::default(), Best::default());
    let mut plain_fastest = u64::MAX;
    let mut traced: Option<(Rep, LayerRep)> = None;
    let rss = RssMark::set()?;
    let mut reps = Reps::start(plan);
    while let Some(trace) = reps.next_rep() {
        let (rep, layers) = if trace {
            let (rep, layers) = traced_rep(&dhs, &inputs, net_seed, ops_seed);
            (rep, Some(layers))
        } else {
            let (rep, ring) = plain_rep(&dhs, &inputs, net_seed, ops_seed);
            if out.digests.is_empty() {
                out.set("peak_rss_rise_mib", rss.rise_mib()?);
                // The first repetition's counts against the oracle.
                judge(&rep.count.results, &inputs, &oracle, out);
                if rep.net_calls == 0 {
                    out.problem("the transport saw no exchanges".to_string());
                }
                out.set(
                    "bytes_per_sketch",
                    ring.total_live_bytes() as f64 / METRICS.len() as f64,
                );
                checked_registers = rep
                    .count
                    .results
                    .iter()
                    .flatten()
                    .map(registers_u8)
                    .collect();
            }
            (rep, None)
        };
        // An insert whose store exchange ran out of retries failed; a
        // count always returns an estimate, judged by `estimate_recall`.
        out.tally(rep.ops(), rep.insert.failed);
        out.digest(trace, rep.digest());
        match layers {
            Some(layers) => {
                if traced
                    .as_ref()
                    .is_none_or(|t| rep.total_ns() < t.0.total_ns())
                {
                    traced = Some((rep, layers));
                }
            }
            None => {
                plain_fastest = plain_fastest.min(rep.total_ns());
                blocks.update(&rep.insert.block_ns);
                singles.update(&rep.count.single_ns);
                multis.update(&rep.count.multi_ns);
            }
        }
        setup_timer.again();
    }
    let setup_s = setup_timer.median_s();
    out.set("setup_s", setup_s);

    out.set(
        "update_per_s",
        inputs.inserts.len() as f64 / blocks.total_s(),
    );
    out.set(
        "ops_per_s",
        n_ops as f64 / (blocks.total_s() + singles.total_s() + multis.total_s()),
    );
    out.set("op_p50_us", singles.quantile_us(s.single_counts, 0.5));
    out.set("op_p90_us", singles.quantile_us(s.single_counts, 0.9));

    if let (true, Some((rep, layers))) = (plan.trace, traced) {
        layer_metrics(
            out,
            &inputs,
            &checked_registers,
            (&rep, &layers),
            setup_s,
            plain_fastest as f64,
        );
    }
    Ok(())
}

/// Per-layer metrics from the fastest traced repetition, plus isolated
/// timings of the hash and the estimator.
fn layer_metrics(
    out: &mut Outcome,
    inputs: &Inputs,
    checked_registers: &[Vec<u8>],
    (rep, l): (&Rep, &LayerRep),
    setup_s: f64,
    e2e_ns: f64,
) {
    let items: Vec<u64> = inputs.inserts.iter().take(1 << 16).map(|i| i.1).collect();
    let md4_ns = ns_per_op(&items, 5, |&x| {
        black_box(Md4Hasher.hash_u64(black_box(x)));
    });
    let sll_ns = ns_per_op(checked_registers, 5, |v| {
        black_box(superloglog_estimate_from_registers(v));
    });

    let f = |x: u64| x as f64;
    let inserts = f(rep.inserts);
    let counts = f(rep.counts());
    let insert_call = f(l.insert_call_ns);
    let count_call = f(rep.count_ns());
    let exchanges = f(l.exchange_insert.0 + l.exchange_count.0);
    let fetches = f(l.fetches);
    let (il, cl) = (&rep.insert.ledger, &rep.count.ledger);

    out.set("workload.gen_ns_per_item", setup_s * 1e9 / f(rep.ops()));
    out.set("sketch.md4_ns", md4_ns);
    out.set("sketch.sll_estimate_ns", sll_ns);
    out.set("core.insert_ns", ratio(insert_call, inserts));
    out.set(
        "core.insert_self_ns",
        ratio(
            insert_call - f(l.route_insert.1 + l.put.1 + l.exchange_insert.1),
            inserts,
        ),
    );
    out.set(
        "core.count_ns",
        ratio(
            f(rep.count.single_ns.iter().sum()),
            f(rep.count.single_ns.len() as u64),
        ),
    );
    out.set(
        "core.count_multi_ns",
        ratio(
            f(rep.count.multi_ns.iter().sum()),
            f(rep.count.multi_ns.len() as u64),
        ),
    );
    out.set(
        "core.count_self_ns",
        ratio(
            count_call
                - f(l.route_count.1 + l.exchange_count.1)
                - fetches * l.fetch_ns
                - f(l.navs) * l.nav_ns,
            counts,
        ),
    );
    out.set("core.hops_per_insert", ratio(f(il.hops()), inserts));
    out.set("core.hops_per_count", ratio(f(cl.hops()), counts));
    out.set("core.msgs_per_count", ratio(f(cl.messages()), counts));
    out.set("core.bytes_per_count", ratio(f(cl.bytes()), counts));
    out.set(
        "dht.route_ns",
        ratio(
            f(l.route_insert.1 + l.route_count.1),
            f(l.route_insert.0 + l.route_count.0),
        ),
    );
    out.set("dht.put_ns", ratio(f(l.put.1), f(l.put.0)));
    out.set("dht.fetch_ns", l.fetch_ns);
    out.set("dht.nav_ns", l.nav_ns);
    out.set("dht.fetches_per_count", ratio(fetches, counts));
    out.set("dht.probe_hit_share", ratio(f(l.fetch_hits), fetches));
    out.set(
        "net.exchange_ns",
        ratio(f(l.exchange_insert.1 + l.exchange_count.1), exchanges),
    );
    out.set("net.exchanges_per_op", ratio(exchanges, inserts + counts));
    out.set("net.timeouts", f(rep.net_timeouts));
    out.set("net.retries", f(rep.net_retries));
    out.set(
        "net.delivered_share",
        1.0 - ratio(f(rep.net_timeouts), f(rep.net_calls)),
    );
    out.set("trace.overhead_share", f(rep.total_ns()) / e2e_ns - 1.0);
    let ladder_ns = md4_ns * inserts + insert_call + count_call;
    out.set("trace.unattributed_share", 1.0 - ladder_ns / e2e_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_core::CountStats;

    /// A count of `metric` that found the exact registers.
    fn exact_count(oracle: &Oracle, metric: MetricId) -> Vec<CountResult> {
        let regs = oracle.regs[metric_index(metric)];
        vec![CountResult {
            metric,
            estimate: superloglog_estimate_from_registers(&regs),
            registers: regs.iter().map(|&r| u32::from(r)).collect(),
            stats: CountStats::default(),
        }]
    }

    #[test]
    fn recall_falls_past_its_bound_when_a_tenth_of_counts_miss_registers() {
        let s = sizes(Scale::Smoke);
        let dhs = Dhs::new(dhs_config()).expect("valid config");
        let inputs = setup(&s, 5);
        let oracle = Oracle::build(&dhs, &inputs.inserts);
        let mut results: Vec<_> = inputs
            .singles
            .iter()
            .map(|&(metric, _)| exact_count(&oracle, metric))
            .collect();
        let mut out = Outcome::new();
        judge(&results, &inputs, &oracle, &mut out);
        assert!(out.correct, "{:?}", out.problems);
        assert_eq!(out.metrics["estimate_recall"], 1.0);

        // Every 10th count misses two registers: a legal result (no
        // register above the oracle's), but a less accurate one.
        for r in results.iter_mut().step_by(10) {
            let r = &mut r[0];
            r.registers[0] = 0;
            r.registers[1] = 0;
            r.estimate = superloglog_estimate_from_registers(&registers_u8(r));
        }
        let mut out = Outcome::new();
        judge(&results, &inputs, &oracle, &mut out);
        assert!(out.correct, "{:?}", out.problems);
        // Past the metric's bound of 0.01.
        assert!(out.metrics["estimate_recall"] < 0.99);

        // A register above what was inserted is a wrong count.
        results[1][0].registers[0] += 1;
        let mut out = Outcome::new();
        judge(&results, &inputs, &oracle, &mut out);
        assert!(!out.correct);
    }
}
