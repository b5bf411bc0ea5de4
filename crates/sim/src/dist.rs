//! Seedable random distributions used to model stochastic durations.
//!
//! The experiment harness needs reproducible randomness (same seed → same figure), so
//! every model that samples a duration takes an explicit `&mut impl Rng`. Distributions
//! are plain `Copy` values, so platform/model calibration constants can be embedded in
//! experiment configurations.

use rand::Rng;

/// A univariate distribution over non-negative real values (durations in seconds,
/// latencies, token counts, ...). Samples are clamped at zero where the underlying
/// distribution admits negative values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Gaussian with the given mean and standard deviation, clamped at zero.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
    /// Log-normal parameterised by the *underlying* normal's mu and sigma.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Exponential with the given rate (lambda).
    Exponential {
        /// Rate parameter; mean is `1/rate`.
        rate: f64,
    },
    /// Gaussian truncated (by rejection/clamping) to `[lo, hi]`.
    TruncatedNormal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
        /// Lower clamp.
        lo: f64,
        /// Upper clamp.
        hi: f64,
    },
}

impl Dist {
    /// A distribution that always yields `v`.
    pub fn constant(v: f64) -> Self {
        Dist::Constant(v)
    }

    /// A normal distribution clamped at zero.
    pub fn normal(mean: f64, std: f64) -> Self {
        Dist::Normal { mean, std }
    }

    /// A uniform distribution over `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        assert!(hi >= lo, "uniform upper bound must be >= lower bound");
        Dist::Uniform { lo, hi }
    }

    /// An exponential distribution with the given mean.
    pub fn exponential_with_mean(mean: f64) -> Self {
        assert!(mean > 0.0, "exponential mean must be positive");
        Dist::Exponential { rate: 1.0 / mean }
    }

    /// A log-normal distribution specified by its *target* mean and coefficient of
    /// variation (std/mean) — convenient for long-tailed duration models.
    pub fn lognormal_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(
            mean > 0.0 && cv >= 0.0,
            "lognormal mean must be > 0 and cv >= 0"
        );
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Dist::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => {
                if hi > lo {
                    rng.gen_range(lo..hi)
                } else {
                    lo
                }
            }
            Dist::Normal { mean, std } => (mean + std * standard_normal(rng)).max(0.0),
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Exponential { rate } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -u.ln() / rate
            }
            Dist::TruncatedNormal { mean, std, lo, hi } => {
                (mean + std * standard_normal(rng)).clamp(lo, hi)
            }
        }
    }

    /// Analytical mean of the distribution (before the zero clamp; the clamp bias is
    /// negligible for the calibration constants used in this workspace where
    /// `mean >> std`).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Exponential { rate } => 1.0 / rate,
            Dist::TruncatedNormal { mean, lo, hi, .. } => mean.clamp(lo, hi),
        }
    }

    /// Sample and interpret the value as a duration in seconds.
    pub fn sample_secs<R: Rng + ?Sized>(&self, rng: &mut R) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.sample(rng).max(0.0))
    }
}

/// One draw from the standard normal distribution (Box–Muller transform).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_always_same() {
        let d = Dist::constant(3.5);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn uniform_within_bounds() {
        let d = Dist::uniform(2.0, 4.0);
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r);
            assert!((2.0..4.0).contains(&v));
        }
        assert!((sample_mean(&d, 20_000) - 3.0).abs() < 0.05);
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let d = Dist::uniform(5.0, 5.0);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 5.0);
    }

    #[test]
    fn normal_mean_and_clamp() {
        let d = Dist::normal(10.0, 2.0);
        assert!((sample_mean(&d, 50_000) - 10.0).abs() < 0.1);
        // Heavily negative mean gets clamped to zero samples.
        let clamped = Dist::normal(-5.0, 0.1);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(clamped.sample(&mut r), 0.0);
        }
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::exponential_with_mean(4.0);
        assert!((d.mean() - 4.0).abs() < 1e-12);
        assert!((sample_mean(&d, 100_000) - 4.0).abs() < 0.15);
    }

    #[test]
    fn lognormal_mean_cv_calibration() {
        let d = Dist::lognormal_mean_cv(30.0, 0.2);
        assert!((d.mean() - 30.0).abs() < 1e-9);
        let m = sample_mean(&d, 100_000);
        assert!((m - 30.0).abs() < 0.5, "sample mean {m}");
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let d = Dist::TruncatedNormal {
            mean: 1.0,
            std: 5.0,
            lo: 0.5,
            hi: 1.5,
        };
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r);
            assert!((0.5..=1.5).contains(&v));
        }
    }

    #[test]
    fn sample_secs_never_negative() {
        let d = Dist::normal(0.0, 1.0);
        let mut r = rng();
        for _ in 0..100 {
            let _ = d.sample_secs(&mut r); // would panic on negative input
        }
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let d = Dist::normal(5.0, 1.0);
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..16).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..16).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "upper bound")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Dist::uniform(3.0, 1.0);
    }
}
