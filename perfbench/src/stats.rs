//! Order statistics over timing samples.

/// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank: the smallest sample
/// with at least a `q` share of samples at or below it. Infinite samples
/// (failed operations, which miss every latency limit) sort last. `0.0`
/// for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sum, starting from +0 (an empty sum is 0, not -0).
pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failures_sort_past_every_limit() {
        let v = [1.0, f64::INFINITY, 2.0];
        assert_eq!(quantile(&v, 1.0), f64::INFINITY);
        assert_eq!(median(&v), 2.0);
    }
}
