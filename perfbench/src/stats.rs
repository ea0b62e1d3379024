//! Exact quantiles over raw samples, and the median/quartile summaries the
//! benchmark reports.

/// A percentile must have at least this many samples strictly beyond its
/// rank, or it is not reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `sorted` (ascending) at `p` in (0, 1].
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond it:
/// such a figure is one or two unlucky samples, not a tail.
pub fn quantile(sorted: &[u64], p: f64) -> Result<u64, String> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples give {}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_enough_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5).unwrap(), 500);
        assert_eq!(quantile(&v, 0.99).unwrap(), 990);
        // p99.9 of 1000 samples leaves one beyond it: refused.
        assert!(quantile(&v, 0.999).is_err());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
