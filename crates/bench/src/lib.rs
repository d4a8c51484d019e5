//! # owp-bench — experiment harness
//!
//! Regenerates every table and figure of the reproduction (see
//! `EXPERIMENTS.md`). The paper itself contains no empirical evaluation —
//! only the worked Figure 1 — so E1 reproduces that figure exactly and
//! E2–E11 are the evaluation its theorems define (approximation ratios vs
//! the proven bounds, message/round complexity, baseline comparisons,
//! robustness).
//!
//! Run a single experiment:
//!
//! ```text
//! cargo run -p owp-bench --release --bin experiments -- e2
//! cargo run -p owp-bench --release --bin experiments -- all
//! cargo run -p owp-bench --release --bin experiments -- e4 --quick
//! ```
//!
//! Criterion micro-benchmarks live in `benches/`.

pub mod campaign;
pub mod experiments;
pub mod table;

pub use table::Table;

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n − 1 denominator; 0 for < 2 samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Minimum of a non-empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }
}
