//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Interquartile range as a share of the median — the spread the
/// benchmark contract bounds. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// number printed here is the number the driver computes.
pub fn iqr_share(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let exclusive = |k: f64| {
        let pos = (k * (n + 1) as f64 / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - lo as f64)
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (exclusive(3.0) - exclusive(1.0)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
