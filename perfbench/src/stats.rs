//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is read off the sorted raw
//! samples (nearest-rank), never off a bucketed histogram, and travels
//! with the number of samples it was taken from.

use std::time::Duration;

/// Samples per latency window: the p99 of 1000 samples has ten beyond it.
pub const WINDOW: usize = 1000;

/// Raw samples of one quantity, in the order they were recorded.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`): the smallest sample
    /// with at least `⌈q·n⌉` samples at or below it. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `q`-quantile of each consecutive window of `window` samples,
    /// in recording order. A trailing partial window joins the one
    /// before it; fewer than `window` samples form a single window.
    pub fn windowed(&self, q: f64, window: usize) -> Vec<f64> {
        let n = self.values.len();
        let k = (n / window).max(1);
        (0..k)
            .map(|i| {
                let end = if i + 1 == k { n } else { (i + 1) * window };
                quantile(&self.values[i * window..end], q)
            })
            .collect()
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of unsorted `values` (see [`Samples::quantile`]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_on_small_sets() {
        let s = samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.2), 1.0);
        assert_eq!(s.quantile(0.21), 2.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(samples(&[7.0, 9.0]).median(), 7.0);
        assert!(Samples::new().median().is_nan());
    }

    #[test]
    fn p99_is_exact_not_bucketed() {
        // 1000 samples of 1000 … 1999 µs: a log2 histogram reports every
        // one of these p99s as the 2048 µs bucket bound.
        let s = samples(&(1000..2000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.quantile(0.99), 1989.0);
        assert_eq!(s.median(), 1499.0);
    }

    #[test]
    fn windows_keep_recording_order_and_absorb_the_remainder() {
        let s = samples(&(1..=25).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.windowed(1.0, 10), vec![10.0, 25.0]);
        assert_eq!(s.windowed(0.5, 10), vec![5.0, 18.0]);
        assert_eq!(s.windowed(1.0, 100), vec![25.0]);
    }
}
