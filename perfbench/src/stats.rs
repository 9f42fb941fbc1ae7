//! Small summary statistics.

use cloudmedia_telemetry::bucket_bounds;

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Estimated `q`-quantile of a log2 histogram (the telemetry crate's
/// 65-bucket layout). The observations of a bucket are assumed to be
/// spread evenly over its range, so the estimate moves with the counts
/// instead of snapping to a power of two. `q = 1` estimates the maximum.
/// 0 for an empty histogram.
pub fn hist_quantile(buckets: &[u64], q: f64) -> f64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let mut below = 0u64;
    for (b, &count) in buckets.iter().enumerate() {
        if below + count >= rank {
            let (lo, hi) = bucket_bounds(b);
            let k = (rank - below) as f64;
            return lo as f64 + (hi - lo) as f64 * (k - 0.5) / count as f64;
        }
        below += count;
    }
    unreachable!("rank is at most the total count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_telemetry::{bucket_index, HIST_BUCKETS};

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn histogram_quantiles_stay_inside_the_right_bucket() {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        for v in [100u64, 110, 120, 5000, 5100] {
            buckets[bucket_index(v)] += 1;
        }
        let p50 = hist_quantile(&buckets, 0.5);
        assert!((64.0..128.0).contains(&p50), "{p50}");
        let max = hist_quantile(&buckets, 1.0);
        assert!((4096.0..8192.0).contains(&max), "{max}");
        assert!(hist_quantile(&buckets, 0.0) >= 64.0);
        assert_eq!(hist_quantile(&vec![0; HIST_BUCKETS], 0.5), 0.0);
    }
}
