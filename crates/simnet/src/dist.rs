//! Service-time and latency distributions.
//!
//! The evaluation calibrates simulated component costs to the paper's
//! measurements (Table II reports per-component means and standard
//! deviations), so the common case is a truncated normal; link latencies use
//! constants or uniform jitter; arrival processes use exponentials.

use crate::rng::SimRng;
use std::time::Duration;

/// A distribution over non-negative durations.
///
/// All variants clamp below at zero — a negative service time is
/// meaningless — which matches how the paper's measured distributions behave
/// (e.g. the proxy's 0.16 ms ± 0.72 ms breakdown row is a heavy-tailed,
/// non-negative quantity).
#[derive(Clone, Debug, PartialEq)]
pub enum Dist {
    /// Always the same duration.
    Constant(Duration),
    /// Uniform over `[lo, hi)`.
    Uniform(Duration, Duration),
    /// Normal with the given mean and standard deviation, truncated at zero.
    Normal {
        /// Mean of the untruncated normal.
        mean: Duration,
        /// Standard deviation of the untruncated normal.
        std_dev: Duration,
    },
    /// Exponential with the given mean.
    Exponential(Duration),
}

impl Dist {
    /// Convenience constructor: truncated normal from millisecond floats.
    #[must_use]
    pub fn normal_ms(mean_ms: f64, std_ms: f64) -> Dist {
        Dist::Normal {
            mean: Duration::from_secs_f64(mean_ms / 1e3),
            std_dev: Duration::from_secs_f64(std_ms / 1e3),
        }
    }

    /// Convenience constructor: constant from millisecond float.
    #[must_use]
    pub fn constant_ms(ms: f64) -> Dist {
        Dist::Constant(Duration::from_secs_f64(ms / 1e3))
    }

    /// Draws one duration.
    pub fn sample(&self, rng: &mut SimRng) -> Duration {
        match *self {
            Dist::Constant(d) => d,
            Dist::Uniform(lo, hi) => {
                if lo >= hi {
                    lo
                } else {
                    rng.duration_range(lo, hi)
                }
            }
            Dist::Normal { mean, std_dev } => {
                let x = rng.normal(mean.as_secs_f64(), std_dev.as_secs_f64());
                Duration::from_secs_f64(x.max(0.0))
            }
            Dist::Exponential(mean) => Duration::from_secs_f64(rng.exponential(mean.as_secs_f64())),
        }
    }

    /// The distribution's mean (of the *untruncated* form for `Normal`;
    /// adequate for calibration sanity checks).
    #[must_use]
    pub fn mean(&self) -> Duration {
        match *self {
            Dist::Constant(d) => d,
            Dist::Uniform(lo, hi) => (lo + hi) / 2,
            Dist::Normal { mean, .. } | Dist::Exponential(mean) => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(dist: &Dist, n: usize) -> f64 {
        let mut rng = SimRng::new(77);
        (0..n)
            .map(|_| dist.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn constant_always_same() {
        let d = Dist::constant_ms(2.5);
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), Duration::from_micros(2500));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let lo = Duration::from_millis(1);
        let hi = Duration::from_millis(3);
        let d = Dist::Uniform(lo, hi);
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!(x >= lo && x < hi);
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let d = Dist::Uniform(Duration::from_millis(5), Duration::from_millis(5));
        assert_eq!(d.sample(&mut SimRng::new(0)), Duration::from_millis(5));
    }

    #[test]
    fn normal_truncates_at_zero() {
        // Mean 0.16 ms, std 0.72 ms — the paper's proxy row; many raw draws
        // would be negative, all samples must still be non-negative.
        let d = Dist::normal_ms(0.16, 0.72);
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let _ = d.sample(&mut rng); // Duration is non-negative by type.
        }
    }

    #[test]
    fn normal_mean_close_when_far_from_zero() {
        let d = Dist::normal_ms(2.41, 0.97); // Table II binding query row.
        let m = sample_mean(&d, 50_000);
        assert!((m - 0.00241).abs() < 0.0001, "mean {m}");
    }

    #[test]
    fn exponential_mean_close() {
        let d = Dist::Exponential(Duration::from_millis(10));
        let m = sample_mean(&d, 50_000);
        assert!((m - 0.010).abs() < 0.0005, "mean {m}");
    }

    #[test]
    fn mean_accessor_matches_construction() {
        assert_eq!(Dist::constant_ms(4.0).mean(), Duration::from_millis(4));
        assert_eq!(
            Dist::Uniform(Duration::from_millis(2), Duration::from_millis(4)).mean(),
            Duration::from_millis(3)
        );
        assert_eq!(Dist::normal_ms(2.0, 1.0).mean(), Duration::from_millis(2));
    }
}
