//! Order statistics and the small timing helpers every workload shares.

use std::time::Instant;

/// Nanoseconds elapsed since `start`, saturating at `u64::MAX`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median nanoseconds per input over `rounds` timed passes of `f` over
/// `inputs`. `f` must pass its result through [`std::hint::black_box`].
pub fn ns_per_op<T>(inputs: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let per: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let start = Instant::now();
            for x in inputs {
                f(x);
            }
            elapsed_ns(start) as f64 / inputs.len() as f64
        })
        .collect();
    median(&per)
}

/// The fastest time seen at each position of a replayed sequence.
///
/// Every repetition of a workload replays identical operations, so
/// position `i` (an operation, or a fixed block of them) does the same
/// work each time. Interference from other load on the machine only ever
/// adds time, and comes in phases longer than one operation but shorter
/// than a run; the per-position minimum over repetitions removes it
/// while keeping every position's own cost.
#[derive(Debug, Clone, Default)]
pub struct Best {
    ns: Vec<u64>,
}

impl Best {
    /// Fold in one repetition's per-position nanoseconds.
    pub fn update(&mut self, sample: &[u64]) {
        if self.ns.is_empty() {
            self.ns = sample.to_vec();
            return;
        }
        assert_eq!(
            self.ns.len(),
            sample.len(),
            "repetitions must replay the same positions"
        );
        for (best, &s) in self.ns.iter_mut().zip(sample) {
            *best = (*best).min(s);
        }
    }

    /// Sum over positions, in seconds.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// The `q`-quantile over the first `len` positions, in microseconds.
    pub fn quantile_us(&self, len: usize, q: f64) -> f64 {
        let values: Vec<f64> = self.ns.iter().take(len).map(|&v| v as f64).collect();
        quantile(&values, q) / 1e3
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_keeps_each_positions_minimum() {
        let mut best = Best::default();
        best.update(&[30, 10, 5000]);
        best.update(&[20, 40, 3000]);
        assert!((best.total_s() - 3030e-9).abs() < 1e-15);
        assert_eq!(best.quantile_us(3, 0.5), 0.02);
        assert_eq!(best.quantile_us(2, 1.0), 0.02);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
