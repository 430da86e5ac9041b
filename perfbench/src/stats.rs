//! Exact order statistics over raw samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples:
//! the q-quantile of n samples is the ⌈q·n⌉-th smallest. No buckets, so a
//! reported p99 is a value that was actually measured.

/// Standard percentile ladder, in percent.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A percentile is trusted only with this many samples above it.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest rank ⌈p·n/100⌉, forgiving the rounding error of `p`'s
/// binary form (99.9 × 1000 must be rank 999, not 1000).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Sorted samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of raw samples (NaNs are dropped).
    pub fn new(mut raw: Vec<f64>) -> Self {
        raw.retain(|v| !v.is_nan());
        raw.sort_by(f64::total_cmp);
        Samples { sorted: raw }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank percentile `p` (in percent, `0 < p <= 100`).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        self.sorted.get(rank(p, n).clamp(1, n) - 1).copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// Whether percentile `p` has at least [`TAIL_SAMPLES`] samples
    /// strictly above its rank.
    pub fn supports(&self, p: f64) -> bool {
        let n = self.sorted.len();
        n > 0 && n.saturating_sub(rank(p, n).max(1)) >= TAIL_SAMPLES
    }

    /// The highest ladder percentile with at least [`TAIL_SAMPLES`]
    /// samples beyond it, with its value.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        LADDER
            .iter()
            .rev()
            .find(|&&p| self.supports(p))
            .and_then(|&p| self.percentile(p).map(|v| (p, v)))
    }

    /// The report entry: count, p50, p99, whether p99 is supported, and
    /// the highest supported percentile.
    pub fn summary(&self) -> serde_json::Value {
        let highest = self
            .highest_supported()
            .map(|(p, v)| serde_json::json!({"p": p, "value": v}))
            .unwrap_or(serde_json::Value::Null);
        serde_json::json!({
            "n": self.len(),
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p99_supported": self.supports(99.0),
            "highest_supported": highest,
        })
    }
}

/// Median of a small set of per-repetition figures.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec())
        .percentile(50.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        // Shuffled on purpose: order of arrival must not matter.
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn nearest_rank_on_known_order_statistics() {
        let s = one_to(100);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.5), Some(1.0));
        let s = one_to(1000);
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert_eq!(s.percentile(99.9), Some(999.0));
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.percentile(50.0), Some(2.0));
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        // 1000 samples: p99 has 10 above it, p99.9 only 1.
        let s = one_to(1000);
        assert!(s.supports(99.0));
        assert!(!s.supports(99.9));
        assert_eq!(s.highest_supported(), Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990, only 9 above.
        let s = one_to(999);
        assert!(!s.supports(99.0));
        assert_eq!(s.highest_supported(), Some((95.0, 950.0)));
        assert_eq!(one_to(5).highest_supported(), None);
        assert_eq!(Samples::default().percentile(50.0), None);
    }

    #[test]
    fn nan_is_dropped_and_median_is_exact() {
        let s = Samples::new(vec![f64::NAN, 4.0, 2.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
