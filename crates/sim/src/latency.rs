//! Per-message latency models.
//!
//! The law itself — its sampler, CDF and mean — is written once, in
//! `pqs-math`, where the capacity planner inverts it; the simulator knows
//! it as [`LatencyModel`].

/// Distribution of the one-way latency of a client–server exchange.
pub use pqs_math::plan::ProbeLatency as LatencyModel;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fixed_is_constant() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = LatencyModel::Fixed(0.25);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 0.25);
        }
        assert_eq!(m.mean(), 0.25);
        assert_eq!(LatencyModel::Fixed(-1.0).sample(&mut rng), 0.0);
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m = LatencyModel::Uniform { min: 0.1, max: 0.3 };
        let mut sum = 0.0;
        for _ in 0..5000 {
            let s = m.sample(&mut rng);
            assert!((0.1..=0.3).contains(&s));
            sum += s;
        }
        assert!((sum / 5000.0 - 0.2).abs() < 0.01);
        assert_eq!(m.mean(), 0.2);
        // Swapped bounds are tolerated.
        let swapped = LatencyModel::Uniform { min: 0.3, max: 0.1 };
        let s = swapped.sample(&mut rng);
        assert!((0.1..=0.3).contains(&s));
        // Degenerate interval.
        let point = LatencyModel::Uniform { min: 0.2, max: 0.2 };
        assert_eq!(point.sample(&mut rng), 0.2);
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = LatencyModel::Exponential { mean: 0.05 };
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let s = m.sample(&mut rng);
            assert!(s >= 0.0 && s.is_finite());
            sum += s;
        }
        assert!((sum / 20_000.0 - 0.05).abs() < 0.005);
        assert_eq!(m.mean(), 0.05);
        assert_eq!(
            LatencyModel::Exponential { mean: 0.0 }.sample(&mut rng),
            0.0
        );
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m = LatencyModel::Pareto {
            scale: 1e-3,
            shape: 2.5,
        };
        let mut sum = 0.0;
        let mut beyond_10x = 0u32;
        for _ in 0..50_000 {
            let s = m.sample(&mut rng);
            assert!(s >= 1e-3 && s.is_finite());
            sum += s;
            if s > 1e-2 {
                beyond_10x += 1;
            }
        }
        // Mean = scale * a/(a-1) = 1e-3 * 2.5/1.5.
        assert!((sum / 50_000.0 - 1e-3 * 2.5 / 1.5).abs() < 2e-4);
        assert!((m.mean() - 1e-3 * 2.5 / 1.5).abs() < 1e-12);
        // P(X > 10*scale) = 10^-2.5 ~ 0.32%: the tail is real.
        assert!(beyond_10x > 50, "tail too thin: {beyond_10x}");
        // Degenerate parameters fall back to the scale.
        assert_eq!(
            LatencyModel::Pareto {
                scale: 0.0,
                shape: 2.0
            }
            .sample(&mut rng),
            0.0
        );
        assert!(LatencyModel::Pareto {
            scale: 1.0,
            shape: 0.5
        }
        .mean()
        .is_infinite());
    }

    #[test]
    fn default_is_one_millisecond() {
        assert_eq!(LatencyModel::default(), LatencyModel::Fixed(1e-3));
    }
}
