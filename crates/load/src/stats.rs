//! Multi-run statistical aggregation.
//!
//! A single simulated run is deterministic, so run-to-run variance comes from
//! the seed. Experiments fan a plan across several seeds and report
//! mean/stddev/CV and a 95% confidence interval on the mean (Student's t, so
//! small seed counts are handled honestly).

/// Summary statistics over a set of per-seed samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0.0 when n < 2).
    pub stddev: f64,
    /// Coefficient of variation (stddev / mean; 0.0 when the mean is 0).
    pub cv: f64,
    /// Half-width of the 95% confidence interval on the mean (0.0 when n < 2).
    pub ci95: f64,
}

/// Two-sided 95% Student-t critical values for df = 1..=30; beyond that the
/// normal approximation (1.96) is within 2%.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

impl Summary {
    /// Summarize `samples` (non-finite entries are ignored).
    pub fn of(samples: &[f64]) -> Summary {
        let clean: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        let n = clean.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                cv: 0.0,
                ci95: 0.0,
            };
        }
        let mean = clean.iter().sum::<f64>() / n as f64;
        let (stddev, ci95) = if n >= 2 {
            let var = clean.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let sd = var.sqrt();
            let t = T95.get(n - 2).copied().unwrap_or(1.96);
            (sd, t * sd / (n as f64).sqrt())
        } else {
            (0.0, 0.0)
        };
        let cv = if mean.abs() > f64::EPSILON {
            stddev / mean.abs()
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            stddev,
            cv,
            ci95,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.mean, 0.0);
        let s = Summary::of(&[5.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_values() {
        // samples 2, 4, 6: mean 4, sample variance 4, sd 2.
        let s = Summary::of(&[2.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert!((s.cv - 0.5).abs() < 1e-12);
        // t(df=2, 95%) = 4.303; ci = 4.303 * 2 / sqrt(3)
        let expect = 4.303 * 2.0 / 3f64.sqrt();
        assert!((s.ci95 - expect).abs() < 1e-9, "ci95 = {}", s.ci95);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn large_n_uses_normal_approximation() {
        let samples: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 100);
        let expect = 1.96 * s.stddev / 10.0;
        assert!((s.ci95 - expect).abs() < 1e-9);
    }
}
