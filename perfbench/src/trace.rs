//! Observing wrappers over the stack's public traits.
//!
//! Every wrapper forwards each call verbatim to the wrapped value, so a
//! traced run computes bit-identical estimates, digests and ledger
//! charges; it only adds counters and, where the call is coarse enough
//! for a clock read not to dominate it, a wall-clock accumulator.
//! Fine-grained calls (`fetch_at`, `next_node`, `prev_node`) are counted
//! exactly but only every [`SAMPLE_EVERY`]th one is timed, net of the
//! clock's own cost: timing each of the thousands of probes in a count
//! would more than double the count's time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dhs_core::transport::{MessageKind, Transport, TransportError};
use dhs_core::RetryPolicy;
use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;
use dhs_dht::storage::StoredRecord;
use dhs_obs::Recorder;
use dhs_shard::{ColdTier, SketchKey};
use rand::Rng;

use crate::stats::elapsed_ns;

/// A [`Sampled`] span times one call in this many.
pub const SAMPLE_EVERY: u64 = 32;

/// Calls and wall-clock nanoseconds spent in one kind of call.
#[derive(Debug, Default)]
pub struct Span {
    on: bool,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Span {
    /// A span that times calls when `on`, and otherwise only runs them.
    pub fn new(on: bool) -> Self {
        Span {
            on,
            ..Span::default()
        }
    }

    /// Run `f`, timing it when the span is on.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + elapsed_ns(start));
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Calls timed so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Nanoseconds accumulated so far.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// Counts every call of a fine-grained method and times one in
/// [`SAMPLE_EVERY`], subtracting the cost of reading the clock.
#[derive(Debug)]
pub struct Sampled {
    calls: Cell<u64>,
    timed: Cell<u64>,
    ns: Cell<u64>,
    clock_ns: f64,
}

impl Sampled {
    /// A sampled span; calibrates the clock's cost once.
    pub fn new() -> Self {
        Sampled {
            calls: Cell::new(0),
            timed: Cell::new(0),
            ns: Cell::new(0),
            clock_ns: clock_cost_ns(),
        }
    }

    /// Run `f`, timing it if it is a sampled call.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + elapsed_ns(start));
        self.timed.set(self.timed.get() + 1);
        out
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean nanoseconds per sampled call, net of the clock's cost.
    pub fn mean_ns(&self) -> f64 {
        (crate::stats::ratio(self.ns.get() as f64, self.timed.get() as f64) - self.clock_ns)
            .max(0.0)
    }
}

impl Default for Sampled {
    fn default() -> Self {
        Sampled::new()
    }
}

/// Median nanoseconds a timed empty call measures: the part of two clock
/// reads that lands inside a timed interval.
fn clock_cost_ns() -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut ns = 0;
            for _ in 0..1000 {
                let start = Instant::now();
                black_box(());
                ns += elapsed_ns(start);
            }
            ns as f64 / 1000.0
        })
        .collect();
    crate::stats::median(&rounds)
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// An [`Overlay`] that counts and times the calls DHS makes into it.
#[derive(Debug)]
pub struct TracedOverlay<O> {
    inner: O,
    /// `route` calls, timed.
    pub route: Span,
    /// `put_at` calls, timed.
    pub put: Span,
    /// `fetch_at` calls, sampled.
    pub fetch: Sampled,
    /// `next_node` plus `prev_node` calls, sampled.
    pub nav: Sampled,
    fetch_hits: Cell<u64>,
}

impl<O: Overlay> TracedOverlay<O> {
    /// Wrap `inner`; timed spans are on.
    pub fn new(inner: O) -> Self {
        TracedOverlay {
            inner,
            route: Span::new(true),
            put: Span::new(true),
            fetch: Sampled::new(),
            nav: Sampled::new(),
            fetch_hits: Cell::new(0),
        }
    }

    /// `fetch_at` calls that found a record.
    pub fn fetch_hits(&self) -> u64 {
        self.fetch_hits.get()
    }
}

impl<O: Overlay> Overlay for TracedOverlay<O> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn time(&self) -> u64 {
        self.inner.time()
    }

    fn owner_of(&self, key: u64) -> u64 {
        self.inner.owner_of(key)
    }

    fn route(&self, from: u64, key: u64, ledger: &mut CostLedger) -> u64 {
        self.route.time(|| self.inner.route(from, key, ledger))
    }

    fn next_node(&self, node: u64) -> u64 {
        self.nav.time(|| self.inner.next_node(node))
    }

    fn prev_node(&self, node: u64) -> u64 {
        self.nav.time(|| self.inner.prev_node(node))
    }

    fn put_at(&mut self, node: u64, app_key: u64, record: StoredRecord) {
        let inner = &mut self.inner;
        self.put.time(|| inner.put_at(node, app_key, record));
    }

    fn fetch_at(&self, node: u64, app_key: u64) -> Option<StoredRecord> {
        let out = self.fetch.time(|| self.inner.fetch_at(node, app_key));
        if out.is_some() {
            bump(&self.fetch_hits);
        }
        out
    }

    fn any_node(&self, rng: &mut impl Rng) -> u64 {
        self.inner.any_node(rng)
    }
}

/// A [`Transport`] that counts exchanges, timeouts and retry pauses, and
/// times exchanges when tracing is on. Counting is always on: the
/// benchmark's failure accounting needs it.
#[derive(Debug)]
pub struct TracedTransport<T> {
    inner: T,
    /// `exchange` plus `routed_exchange` calls (timed when tracing).
    pub exchange: Span,
    calls: u64,
    timeouts: u64,
    pauses: u64,
    last_failed: bool,
}

impl<T: Transport> TracedTransport<T> {
    /// Wrap `inner`; exchanges are timed only when `timed`.
    pub fn new(inner: T, timed: bool) -> Self {
        TracedTransport {
            inner,
            exchange: Span::new(timed),
            calls: 0,
            timeouts: 0,
            pauses: 0,
            last_failed: false,
        }
    }

    /// Exchanges attempted (every retry attempt counts).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Exchanges that returned `Err(Timeout)`.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Retry back-off pauses, one per retried attempt.
    pub fn retries(&self) -> u64 {
        self.pauses
    }

    /// Whether the most recent exchange timed out.
    pub fn last_failed(&self) -> bool {
        self.last_failed
    }

    fn note(&mut self, out: &Result<(), TransportError>) {
        self.calls += 1;
        self.last_failed = out.is_err();
        if self.last_failed {
            self.timeouts += 1;
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn routed_exchange(
        &mut self,
        from: u64,
        dst: u64,
        hops: u64,
        kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError> {
        let inner = &mut self.inner;
        let out = self.exchange.time(|| {
            inner.routed_exchange(from, dst, hops, kind, request_bytes, response_bytes, ledger)
        });
        self.note(&out);
        out
    }

    fn exchange(
        &mut self,
        from: u64,
        dst: u64,
        kind: MessageKind,
        request_bytes: u64,
        response_bytes: u64,
        ledger: &mut CostLedger,
    ) -> Result<(), TransportError> {
        let inner = &mut self.inner;
        let out = self
            .exchange
            .time(|| inner.exchange(from, dst, kind, request_bytes, response_bytes, ledger));
        self.note(&out);
        out
    }

    fn pause(&mut self, ticks: u64) {
        self.pauses += 1;
        self.inner.pause(ticks);
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry_policy()
    }

    fn recorder(&mut self) -> Option<&mut dyn Recorder> {
        self.inner.recorder()
    }
}

/// A [`ColdTier`] that times spills and recoveries.
#[derive(Debug, Default)]
pub struct TimedCold<C> {
    inner: C,
    /// `spill` calls, timed.
    pub spill: Span,
    /// `recover` calls, timed (hits and misses).
    pub recover: Span,
    hits: u64,
}

impl<C: ColdTier> TimedCold<C> {
    /// Wrap `inner` with timing on.
    pub fn new(inner: C) -> Self {
        TimedCold {
            inner,
            spill: Span::new(true),
            recover: Span::new(true),
            hits: 0,
        }
    }
}

/// Read access to how many sketches a cold tier has handed back.
pub trait RecoverCount {
    /// Successful recoveries so far (0 when the tier does not count).
    fn recovered(&self) -> u64;
}

impl<C> RecoverCount for TimedCold<C> {
    fn recovered(&self) -> u64 {
        self.hits
    }
}

impl RecoverCount for dhs_shard::MemoryColdTier {
    fn recovered(&self) -> u64 {
        0
    }
}

impl<C: ColdTier> ColdTier for TimedCold<C> {
    fn spill(&mut self, key: SketchKey, wire: Vec<u8>) {
        let inner = &mut self.inner;
        self.spill.time(|| inner.spill(key, wire));
    }

    fn recover(&mut self, key: SketchKey) -> Option<Vec<u8>> {
        let inner = &mut self.inner;
        let out = self.recover.time(|| inner.recover(key));
        if out.is_some() {
            self.hits += 1;
        }
        out
    }
}

/// A [`Recorder`] that sums counter increments by name and counts
/// histogram observations; spans and gauges are ignored.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    counters: BTreeMap<&'static str, u64>,
    observations: BTreeMap<&'static str, u64>,
}

impl CountingRecorder {
    /// Sum of increments to counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Number of observations recorded into histogram `name`.
    pub fn observations(&self, name: &str) -> u64 {
        self.observations.get(name).copied().unwrap_or(0)
    }
}

impl Recorder for CountingRecorder {
    fn incr(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&mut self, name: &'static str, _value: u64) {
        *self.observations.entry(name).or_insert(0) += 1;
    }

    fn gauge_set(&mut self, _name: &'static str, _value: u64) {}

    fn delivered(&mut self, _kind: u8, _dst: u64) {}

    fn span_start(&mut self, _name: &'static str, _arg: u64, _now: u64) -> u64 {
        0
    }

    fn span_end(&mut self, _id: u64, _now: u64) {}
}
