//! Exact order statistics over raw samples.
//!
//! Every latency is kept as a raw sample and quantiles are nearest-rank
//! over the sorted samples — no histogram buckets, so a p99 moves by the
//! size of the change, not by powers of two. A failed or refused
//! operation is entered as `+∞`: it misses any latency limit, so refusing
//! work can never improve a percentile.

/// Raw latency samples in milliseconds (`+∞` for failed operations).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// One nearest-rank quantile with the evidence behind it.
#[derive(Clone, Copy, Debug)]
pub struct Quantile {
    /// The sample at rank `⌈q·n⌉`.
    pub value: f64,
    /// Total samples.
    pub count: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

impl Samples {
    /// Records a completed operation's latency.
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    /// Records a failed or refused operation.
    pub fn push_failure(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// Appends another thread's samples.
    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    /// Nearest-rank quantile `q ∈ (0, 1]`; `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<Quantile> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, q)
    }

    /// Arithmetic mean of the finite samples.
    pub fn finite_mean(&self) -> Option<f64> {
        let finite: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        (!finite.is_empty()).then(|| finite.iter().sum::<f64>() / finite.len() as f64)
    }
}

fn nearest_rank(sorted: &[f64], q: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&v| v <= value);
    Some(Quantile {
        value,
        count: n,
        beyond,
    })
}

/// Median of a non-empty set of repeated measurements (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
        .map(|q| q.value)
        .expect("median of at least one measurement")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_and_counts_the_tail() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        let p50 = s.quantile(0.5).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
        let p99 = s.quantile(0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
    }

    #[test]
    fn failures_can_only_worsen_a_percentile() {
        let mut s = Samples::default();
        for v in 1..=98 {
            s.push(v as f64);
        }
        s.push_failure();
        s.push_failure();
        assert_eq!(s.quantile(0.99).unwrap().value, f64::INFINITY);
        assert_eq!(s.quantile(0.5).unwrap().value, 50.0);
        assert_eq!(s.finite_mean().unwrap(), 49.5);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }
}
