//! The Laplace distribution, including exact max-of-N sampling.
//!
//! Footnote 6 of the paper: noise with pdf `(ε/2Δf)·exp(−|y|ε/Δf)`, i.e.
//! location 0 and scale `b = Δf/ε`.

use rand::Rng;

/// A Laplace distribution with location 0 and scale `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates `Lap(0, scale)`.
    ///
    /// # Panics
    /// Panics unless `scale` is positive and finite.
    pub fn new(scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive, got {scale}");
        Laplace { scale }
    }

    /// The mechanism calibration of Def. 6: scale `Δf/ε`.
    pub fn for_mechanism(sensitivity: f64, eps: f64) -> Self {
        assert!(eps > 0.0, "privacy parameter must be positive");
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        Laplace::new(sensitivity / eps)
    }

    /// Scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Quantile (inverse CDF) at probability `q ∈ (0, 1)`. Numerically
    /// stable in both tails via `ln1p`/`expm1` formulations: the lower tail
    /// works on `2q` directly and the upper tail routes through
    /// [`Laplace::upper_tail_quantile`] on the exactly-computed survival
    /// mass `1 − q` (exact for `q ≥ ½` by the Sterbenz lemma).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "q must be a probability, got {q}");
        if q == 0.0 {
            return f64::NEG_INFINITY;
        }
        if q == 1.0 {
            return f64::INFINITY;
        }
        if q < 0.5 {
            self.scale * (2.0 * q).ln()
        } else {
            self.upper_tail_quantile(1.0 - q)
        }
    }

    /// Inverse survival function: the `x` with `1 − F(x) = p`, taking the
    /// upper-tail mass `p ∈ (0, 1)` directly. Callers that know the tail
    /// mass (the max-of-N sampler, extreme quantiles beyond `1 − 2⁻⁵³`)
    /// must use this instead of `quantile(1 − p)`, which quantises `p`
    /// away; the near-median branch uses `ln_1p` on the exactly-computed
    /// `1 − 2p`.
    pub fn upper_tail_quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        if p == 0.0 {
            return f64::INFINITY;
        }
        if p == 1.0 {
            return f64::NEG_INFINITY;
        }
        if p <= 0.5 {
            -self.scale * (2.0 * p).ln()
        } else {
            // x = b·ln(2(1−p)) = b·ln1p(1 − 2p); 1 − 2p is exact for
            // p ∈ [½, 1] (2p is an exponent shift, the subtraction is
            // Sterbenz-exact).
            self.scale * (1.0 - 2.0 * p).ln_1p()
        }
    }

    /// A single draw.
    pub fn sample(&self, rng: &mut (impl Rng + ?Sized)) -> f64 {
        // Inverse-CDF on an open (0,1) uniform.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        self.quantile(u.min(1.0 - f64::EPSILON / 2.0))
    }

    /// Exact draw of `max(X₁, …, X_n)` for i.i.d. `Xᵢ ~ Lap(0, b)`.
    ///
    /// The max has CDF `F(x)^n`, so sampling `Q = U^{1/n}` and applying the
    /// quantile is exact. For the huge `n` of the zero-utility class
    /// (`~10⁵`), `Q` sits deep in the upper tail, so we compute
    /// `1 − Q = −expm1(ln(U)/n)` directly instead of forming `Q` and
    /// cancelling.
    pub fn sample_max_of(&self, n: usize, rng: &mut (impl Rng + ?Sized)) -> f64 {
        assert!(n >= 1, "need at least one variable");
        if n == 1 {
            return self.sample(rng);
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let log_q = u.ln() / n as f64; // ln Q, Q = U^{1/n}
        let one_minus_q = -log_q.exp_m1(); // 1 − Q, accurate near 0
        self.upper_tail_quantile(one_minus_q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The pdf, CDF and survival function: the oracles the quantile and
    /// sampler tests check against.
    impl Laplace {
        /// Probability density at `x`.
        pub fn pdf(&self, x: f64) -> f64 {
            (-(x.abs()) / self.scale).exp() / (2.0 * self.scale)
        }

        /// Cumulative distribution function.
        pub fn cdf(&self, x: f64) -> f64 {
            if x < 0.0 {
                0.5 * (x / self.scale).exp()
            } else {
                1.0 - 0.5 * (-x / self.scale).exp()
            }
        }

        /// Survival function `1 − F(x)`, exact deep in the upper tail where
        /// `cdf` saturates at 1: the `x < 0` branch uses `expm1` so no `1 − …`
        /// cancellation ever happens in floating point.
        pub fn sf(&self, x: f64) -> f64 {
            if x >= 0.0 {
                0.5 * (-x / self.scale).exp()
            } else {
                // 1 − ½e^{x/b} = ½(1 − expm1(x/b)) with expm1(x/b) ∈ (−1, 0).
                0.5 * (1.0 - (x / self.scale).exp_m1())
            }
        }
    }

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = Laplace::new(1.5);
        let (mut sum, h) = (0.0, 1e-3);
        let mut x = -40.0;
        while x < 40.0 {
            sum += d.pdf(x) * h;
            x += h;
        }
        assert!((sum - 1.0).abs() < 1e-3, "integral {sum}");
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = Laplace::new(2.0);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = d.quantile(q);
            assert!((d.cdf(x) - q).abs() < 1e-12, "q = {q}");
        }
        assert_eq!(d.quantile(0.5), 0.0);
    }

    #[test]
    fn extreme_quantile_round_trip() {
        // The max-of-N zero-class sampler lands this deep in the upper
        // tail for N ≈ 10⁵; measure the round trip in *tail mass*, where
        // `cdf` would saturate long before the error shows.
        let d = Laplace::new(2.0);
        for q in [1.0 - 1e-14, 1.0 - 1e-12, 1e-14, 1e-12] {
            let x = d.quantile(q);
            assert!((d.cdf(x) - q).abs() < 1e-15, "q = {q}");
            let tail = if q > 0.5 { 1.0 - q } else { q };
            let got = if q > 0.5 { d.sf(x) } else { d.cdf(x) };
            assert!((got - tail).abs() / tail < 1e-12, "q = {q}: tail {got:e} vs {tail:e}");
        }
    }

    #[test]
    fn upper_tail_quantile_handles_mass_below_quantisation() {
        // Tail masses representable as doubles but not as `1 − p`: the
        // plain quantile cannot even be asked for these.
        let d = Laplace::new(1.5);
        let mut last = f64::NEG_INFINITY;
        for p in [0.75, 0.5, 1e-3, 1e-14, 1e-100, 1e-300] {
            let x = d.upper_tail_quantile(p);
            assert!(x.is_finite());
            assert!(x > last, "monotone in shrinking mass");
            last = x;
            assert!((d.sf(x) - p).abs() / p < 1e-12, "p = {p:e}: sf {:e}", d.sf(x));
        }
        assert_eq!(d.upper_tail_quantile(0.0), f64::INFINITY);
        assert_eq!(d.upper_tail_quantile(1.0), f64::NEG_INFINITY);
        // Median consistency with the CDF branch point.
        assert_eq!(d.upper_tail_quantile(0.5), 0.0);
    }

    #[test]
    fn sf_complements_cdf() {
        let d = Laplace::new(1.0);
        for x in [-30.0, -2.0, -0.5, 0.0, 0.5, 2.0, 30.0] {
            assert!((d.sf(x) + d.cdf(x) - 1.0).abs() < 1e-15, "x = {x}");
        }
        // Deep upper tail: cdf saturates to 1, sf keeps full precision.
        assert_eq!(d.cdf(600.0), 1.0);
        assert!(d.sf(600.0) > 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_symmetric() {
        let d = Laplace::new(1.0);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-15);
        for x in [0.1, 0.5, 1.0, 3.0] {
            assert!((d.cdf(x) + d.cdf(-x) - 1.0).abs() < 1e-12);
            assert!(d.cdf(x) > d.cdf(x - 0.05));
        }
    }

    #[test]
    fn mechanism_calibration() {
        let d = Laplace::for_mechanism(2.0, 0.5);
        assert_eq!(d.scale(), 4.0);
    }

    #[test]
    fn sample_mean_and_spread() {
        let d = Laplace::new(3.0);
        let mut r = rng(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        // Variance of Laplace is 2b².
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 18.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn max_of_n_matches_naive_sampling() {
        let d = Laplace::new(1.0);
        let mut r = rng(8);
        let trials = 60_000;
        let n = 25;
        // Empirical mean of max via direct formula sampler…
        let fast: f64 =
            (0..trials).map(|_| d.sample_max_of(n, &mut r)).sum::<f64>() / trials as f64;
        // …vs naive max over n draws.
        let naive: f64 = (0..trials)
            .map(|_| (0..n).map(|_| d.sample(&mut r)).fold(f64::NEG_INFINITY, f64::max))
            .sum::<f64>()
            / trials as f64;
        assert!((fast - naive).abs() < 0.03, "fast {fast} vs naive {naive}");
    }

    #[test]
    fn max_of_huge_n_is_finite_and_growing() {
        let d = Laplace::new(1.0);
        let mut r = rng(9);
        let m_small: f64 = (0..2000).map(|_| d.sample_max_of(100, &mut r)).sum::<f64>() / 2000.0;
        let m_large: f64 =
            (0..2000).map(|_| d.sample_max_of(1_000_000, &mut r)).sum::<f64>() / 2000.0;
        assert!(m_large.is_finite());
        // Large n puts the max in the exponential upper tail, where
        // E[max of n] ≈ b·(ln(n/2) + γ) with γ the Euler–Mascheroni constant.
        assert!(m_large > m_small + 5.0, "small {m_small} large {m_large}");
        let gamma = 0.577_215_664_901_532_9;
        assert!((m_large - ((1_000_000f64 / 2.0).ln() + gamma)).abs() < 0.2, "large {m_large}");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn rejects_bad_scale() {
        let _ = Laplace::new(0.0);
    }

    #[test]
    fn max_of_one_equals_plain_sampling_distribution() {
        let d = Laplace::new(1.0);
        let mut r1 = rng(10);
        let mut r2 = rng(10);
        for _ in 0..100 {
            assert_eq!(d.sample_max_of(1, &mut r1), d.sample(&mut r2));
        }
    }
}
