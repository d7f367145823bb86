//! Wall-clock benchmark of the DHS stack.
//!
//! Four closed-loop, single-client workloads drive the public API of the
//! workload generator, sketches, sharded store, threaded driver, DHS
//! protocol, overlay and simulated network (see README.md for why each
//! was chosen). Every run:
//!
//! 1. generates its inputs from the seed, several times before measuring
//!    and once more after each repetition, and reports as `setup_s` the
//!    median over three stretches of the run of each one's fastest build;
//! 2. repeats the timed workload until the time budget is spent, every
//!    repetition replaying the same inputs;
//! 3. checks the first repetition's outputs against an oracle, and every
//!    later repetition's output digest against the first one's (a
//!    mismatch makes the run incorrect).
//!
//! A traced run interleaves untraced and traced repetitions, so the
//! tracing overhead is measured on neighbouring repetitions, and adds
//! isolated timings of the pure functions each layer is built from.

pub mod overlay;
pub mod par;
pub mod report;
pub mod stats;
pub mod tenant;
pub mod trace;

use std::hint::black_box;
use std::time::{Duration, Instant};

use dhs_obs::Fnv1a;
use dhs_sketch::SplitMix64;

use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{elapsed_ns, median};

/// The workload names, in the order README.md describes them.
pub const WORKLOADS: [&str; 4] = ["tenant-ingest", "tenant-mixed", "overlay-dhs", "par-ingest"];

/// A run builds its inputs at least this many times before measuring,
/// and more while that has taken less than [`SETUP_SECONDS`] in total, up
/// to [`SETUP_MAX_REPS`]; see [`Setup`].
pub const SETUP_REPS: usize = 5;
/// See [`SETUP_REPS`].
pub const SETUP_SECONDS: f64 = 0.5;
/// See [`SETUP_REPS`].
pub const SETUP_MAX_REPS: usize = 201;
/// `setup_s` is the median over this many equal stretches of a run of
/// the fastest build in each; see [`Setup`].
pub const SETUP_WINDOWS: usize = 3;

/// Input sizes: the benchmark's own, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes README.md documents.
    Full,
    /// Tiny inputs that exercise every code path in well under a second.
    Smoke,
}

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Master seed; every input is derived from it.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Wall-clock time for the timed repetitions; a run makes at least
    /// one repetition of each kind, so `Duration::ZERO` makes the fewest.
    pub budget: Duration,
    /// Interleave traced repetitions and report per-layer metrics.
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations that failed legitimately (see README.md).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Output digest of each repetition, with whether it was traced.
    pub digests: Vec<(bool, u64)>,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    /// Workload sizes and constants, for the provenance line.
    pub sizes: Vec<(&'static str, String)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(),
            digests: Vec::new(),
            problems: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// Count `attempted` operations, of which `failed` failed
    /// legitimately.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a failed output check.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Record one repetition's digest; it must equal the first one.
    pub fn digest(&mut self, traced: bool, digest: u64) {
        if let Some(&(_, first)) = self.digests.first() {
            if first != digest {
                self.problem(format!(
                    "repetition {} ({}) digest {digest:016x} differs from the checked {first:016x}",
                    self.digests.len(),
                    if traced { "traced" } else { "untraced" }
                ));
            }
        }
        self.digests.push((traced, digest));
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Drives the repetition loop of a run.
#[derive(Debug)]
pub struct Reps {
    budget: Duration,
    trace: bool,
    start: Instant,
    done: usize,
}

impl Reps {
    /// Start the measurement clock.
    pub fn start(plan: &Plan) -> Self {
        Reps {
            budget: plan.budget,
            trace: plan.trace,
            start: Instant::now(),
            done: 0,
        }
    }

    /// The kind of the next repetition — `Some(traced)` — or `None` when
    /// the budget is spent. Traced runs alternate, untraced first. No
    /// repetition is started that is expected to overrun the budget,
    /// judging by the mean repetition so far.
    pub fn next_rep(&mut self) -> Option<bool> {
        let per_kind = if self.trace { 2 } else { 1 };
        let spent = self.start.elapsed();
        let mean = spent / u32::try_from(self.done.max(1)).unwrap_or(u32::MAX);
        if self.done >= per_kind && spent + mean > self.budget {
            return None;
        }
        let traced = self.trace && self.done % 2 == 1;
        self.done += 1;
        Some(traced)
    }
}

/// A seed for one input stream, decorrelated from the others by `salt`.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::mix(seed ^ SplitMix64::mix(salt))
}

/// Timed input generation: `setup_s` is the median, over
/// [`SETUP_WINDOWS`] equal stretches of the run, of the fastest build in
/// each stretch.
///
/// The inputs are built [`SETUP_REPS`] or more times before the timed
/// repetitions and once more after each of them ([`Setup::again`]), so
/// the builds span the whole run. On a shared host, slow phases last
/// seconds and slow a build by about half, so the median of all builds
/// followed the share of the run spent in them: it spread by 0.24 to
/// 0.42 (IQR ÷ median over ten seeds). A stretch's fastest build is a
/// build outside the slow phases whenever the stretch has one, and the
/// median over stretches needs that of only two of the three. With five
/// stretches of about 6 s, three runs in ten had three stretches
/// without such a build.
pub struct Setup<F> {
    make: F,
    start: Instant,
    /// `(seconds since the first build started, build seconds)`.
    builds: Vec<(f64, f64)>,
}

impl<F> Setup<F> {
    /// Build the inputs repeatedly (see [`SETUP_REPS`]); return the
    /// timer and the last build.
    pub fn run<T>(make: F) -> (Self, T)
    where
        F: FnMut() -> T,
    {
        let mut setup = Setup {
            make,
            start: Instant::now(),
            builds: Vec::new(),
        };
        loop {
            let out = setup.build();
            let n = setup.builds.len();
            let spent = setup.builds.iter().map(|b| b.1).sum::<f64>();
            if n >= SETUP_MAX_REPS || (n >= SETUP_REPS && spent >= SETUP_SECONDS) {
                return (setup, out);
            }
        }
    }

    /// Build the inputs once more, timed, and drop them.
    pub fn again<T>(&mut self)
    where
        F: FnMut() -> T,
    {
        black_box(self.build());
    }

    fn build<T>(&mut self) -> T
    where
        F: FnMut() -> T,
    {
        let start = Instant::now();
        let out = (self.make)();
        let at = start.duration_since(self.start).as_secs_f64();
        self.builds.push((at, elapsed_ns(start) as f64 * 1e-9));
        out
    }

    /// The median over the run's stretches of each one's fastest build,
    /// in seconds.
    pub fn median_s(&self) -> f64 {
        let end = self.builds.last().map_or(0.0, |b| b.0);
        let mut fastest = [f64::INFINITY; SETUP_WINDOWS];
        for &(at, secs) in &self.builds {
            let w = if end > 0.0 {
                ((at / end * SETUP_WINDOWS as f64) as usize).min(SETUP_WINDOWS - 1)
            } else {
                0
            };
            fastest[w] = fastest[w].min(secs);
        }
        let found: Vec<f64> = fastest.into_iter().filter(|s| s.is_finite()).collect();
        median(&found)
    }
}

/// Fold a sequence of `u64` words into an FNV-1a digest.
pub fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.finish()
}

/// A field of `/proc/self/status` in KiB.
fn status_kib(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    line[field.len() + 1..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad {field} line {line:?}: {e}"))
}

/// The resident memory the measured code adds on top of the benchmark's
/// own inputs.
///
/// [`RssMark::set`] resets the process's peak resident set (`VmHWM`) to
/// its current resident set (`VmRSS`) and remembers that; a later
/// [`RssMark::rise_mib`] is the peak since then above it. Set after the
/// inputs are built and read when a repetition's timed part ends, it
/// leaves out inputs, set-up transients and the oracles of the checks.
#[derive(Debug, Clone, Copy)]
pub struct RssMark {
    base_kib: u64,
}

impl RssMark {
    /// Reset the peak and remember the current resident set.
    pub fn set() -> Result<Self, String> {
        // "5" resets VmHWM to VmRSS (proc(5), clear_refs).
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
        Ok(RssMark {
            base_kib: status_kib("VmRSS")?,
        })
    }

    /// Peak resident MiB since [`RssMark::set`], above the resident set
    /// then.
    pub fn rise_mib(&self) -> Result<f64, String> {
        Ok(status_kib("VmHWM")?.saturating_sub(self.base_kib) as f64 / 1024.0)
    }
}

/// Run `workload` under `plan`.
pub fn run(workload: &str, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    match workload {
        "tenant-ingest" => tenant::ingest(plan, &mut out)?,
        "tenant-mixed" => tenant::mixed(plan, &mut out)?,
        "overlay-dhs" => overlay::run(plan, &mut out)?,
        "par-ingest" => par::run(plan, &mut out)?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    }
    // A traced run reports the per-layer table, an untraced one the
    // end-to-end table. Layers the workload bypasses read 0.
    let table = if plan.trace { PER_LAYER } else { END_TO_END };
    out.metrics
        .retain(|name, _| table.iter().any(|(n, _)| n == name));
    if plan.trace {
        for (name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
    report::complete(&out.metrics, table)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_takes_the_median_of_each_stretchs_fastest_build() {
        // Ten builds over 10 s; the three stretches' fastest take 1, 2
        // and 3 ms.
        let builds = [
            (0.0, 4.0),
            (1.0, 1.0),
            (2.0, 5.0),
            (3.0, 6.0),
            (4.0, 2.0),
            (5.0, 7.0),
            (6.0, 9.0),
            (7.0, 9.5),
            (8.0, 3.0),
            (10.0, 8.0),
        ];
        let setup = Setup {
            make: || (),
            start: Instant::now(),
            builds: builds.iter().map(|&(at, ms)| (at, ms * 1e-3)).collect(),
        };
        assert_eq!(setup.median_s(), 2e-3);
    }
}
