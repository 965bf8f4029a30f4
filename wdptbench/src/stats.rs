//! Order statistics for the reported figures.

/// Percentiles offered for a latency tail, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// in exact integer arithmetic on `p`'s tenths.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it,
/// as `(p, value)`; `None` with fewer than `MIN_BEYOND + 1` samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9, so the tail falls back to p90.
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&ramp(4), 50.0), Some(2.0));
        assert_eq!(percentile(&ramp(4), 100.0), Some(4.0));
    }
}
