//! Deterministic random number streams.
//!
//! Every stochastic component of the simulator draws from its own named
//! stream derived from a single experiment seed, so that (a) two runs with
//! the same seed are bit-identical, and (b) changing how one component uses
//! randomness does not perturb the draws seen by another.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded, named random stream.
///
/// Streams are cheap to construct: `DetRng::stream(seed, "montage.cpu")`.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: ChaCha8Rng,
}

impl DetRng {
    /// Create a stream for `label` under the experiment-wide `seed`.
    ///
    /// The label is folded into the seed with FNV-1a so distinct labels get
    /// decorrelated streams.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mixed = seed ^ h.rotate_left(17);
        DetRng {
            inner: ChaCha8Rng::seed_from_u64(mixed),
        }
    }

    /// Uniform draw in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer draw in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Standard normal draw via Box–Muller (avoids a `rand_distr`
    /// dependency).
    pub fn standard_normal(&mut self) -> f64 {
        // u1 in (0,1] so ln(u1) is finite.
        let u1: f64 = 1.0 - self.inner.gen::<f64>();
        let u2: f64 = self.inner.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal draw parameterised by the *target* mean and a coefficient
    /// of variation (sd/mean of the resulting distribution).
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        if cv <= 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.standard_normal()).exp()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::stream(42, "x");
        let mut b = DetRng::stream(42, "x");
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0).to_bits(), b.uniform(0.0, 1.0).to_bits());
        }
    }

    #[test]
    fn different_labels_decorrelate() {
        let mut a = DetRng::stream(42, "x");
        let mut b = DetRng::stream(42, "y");
        let va: Vec<u64> = (0..8).map(|_| a.uniform(0.0, 1.0).to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.uniform(0.0, 1.0).to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = DetRng::stream(1, "x");
        let mut b = DetRng::stream(2, "x");
        assert_ne!(a.uniform(0.0, 1.0).to_bits(), b.uniform(0.0, 1.0).to_bits());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = DetRng::stream(7, "u");
        for _ in 0..1000 {
            let v = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn uniform_empty_range_returns_lo() {
        let mut r = DetRng::stream(7, "u");
        assert_eq!(r.uniform(5.0, 5.0), 5.0);
        assert_eq!(r.uniform(5.0, 1.0), 5.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = DetRng::stream(11, "sn");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn lognormal_mean_cv_hits_target_mean() {
        let mut r = DetRng::stream(13, "ln");
        let n = 40_000;
        let target = 5.0;
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal_mean_cv(target, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - target).abs() / target < 0.03, "mean={mean}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_degenerate_cases() {
        let mut r = DetRng::stream(13, "ln");
        assert_eq!(r.lognormal_mean_cv(0.0, 0.5), 0.0);
        assert_eq!(r.lognormal_mean_cv(3.0, 0.0), 3.0);
    }

    #[test]
    fn index_in_range() {
        let mut r = DetRng::stream(3, "i");
        for _ in 0..100 {
            assert!(r.index(5) < 5);
        }
    }
}
