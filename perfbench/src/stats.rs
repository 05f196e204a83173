//! Order statistics, the accuracy ratio, and the output digest.

/// The nearest-rank percentile of `xs` (`p` in `(0, 1]`): the smallest
/// sample with at least a `p` share of the samples at or below it. With `R`
/// samples exactly `R − ⌈p·R⌉` lie above it, so the benchmark reports p75
/// only as "the highest percentile with at least ten samples beyond it"
/// once `R ≥ 40`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads computed here match the
/// ones computed by tools that use Python (including its extrapolation
/// past the ends of very short samples). A single sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Root-mean-square error of `estimate` against `truth`, in units of the
/// analytic standard deviation `sqrt(mean_variance)`. An unbiased
/// estimator whose variance matches the closed form reads ≈ 1.
pub fn rmse_ratio(estimate: &[f64], truth: &[f64], mean_variance: f64) -> f64 {
    assert_eq!(estimate.len(), truth.len(), "table shapes differ");
    let mse = estimate
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) * (e - t))
        .sum::<f64>()
        / truth.len() as f64;
    (mse / mean_variance).sqrt()
}

/// FNV-1a over 64-bit words: the benchmark's fingerprint of pipeline
/// outputs, so two invocations with one seed can be compared exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs one word, byte by byte.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs the bit pattern of a float.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The fingerprint so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p75_at_forty_runs_leaves_exactly_ten_above() {
        let xs: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let p75 = percentile(&xs, 0.75);
        assert_eq!(xs.iter().filter(|&&x| x > p75).count(), 10);
        let p50 = percentile(&xs, 0.5);
        assert_eq!(xs.iter().filter(|&&x| x > p50).count(), 20);
        // Fewer runs leave fewer beyond p75: the reason R ≥ 40.
        assert_eq!(
            xs[..39]
                .iter()
                .filter(|&&x| x > percentile(&xs[..39], 0.75))
                .count(),
            9
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // Python extrapolates past the ends of very short samples.
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn rmse_ratio_on_a_two_by_two_table() {
        // Errors 3, −1, 1, −3: MSE = (9 + 1 + 1 + 9) / 4 = 5. With a mean
        // analytic variance of 5 / 4 the ratio is sqrt(4) = 2.
        let truth = [10.0, 20.0, 30.0, 40.0];
        let estimate = [13.0, 19.0, 31.0, 37.0];
        assert_eq!(rmse_ratio(&estimate, &truth, 1.25), 2.0);
        assert_eq!(rmse_ratio(&estimate, &truth, 5.0), 1.0);
    }

    #[test]
    fn digest_separates_values_and_order() {
        let of = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.word(w));
            d.value()
        };
        assert_eq!(of(&[1, 2]), of(&[1, 2]));
        assert_ne!(of(&[1, 2]), of(&[2, 1]));
        assert_ne!(of(&[0]), of(&[]));
    }
}
