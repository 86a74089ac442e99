//! Exact order statistics over raw samples.
//!
//! The runtime's `LatencyHistogram` is log-bucketed (up to 12.5 % bucket
//! error, whole-µs resolution), which is coarser than the benchmark's
//! bounds, so every percentile the benchmark reports comes from here.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the
/// smallest sample with at least `q` of all samples at or below it.
/// Returns `NaN` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q)
}

/// Several nearest-rank quantiles of `samples`, sorting once.
pub fn percentiles<const N: usize>(samples: &[f64], qs: [f64; N]) -> [f64; N] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    qs.map(|q| {
        if sorted.is_empty() {
            f64::NAN
        } else {
            nearest_rank(&sorted, q)
        }
    })
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sustained rate: the 10th percentile of per-operation or
/// per-window rates, i.e. the rate the workload holds in nine windows out
/// of ten.
///
/// A shared 2-core virtual machine switches between a slow and a fast
/// mode (up to 1.8x apart) every fraction of a second to a few seconds.
/// The slow mode is steady and shows up in nearly every run; the fast
/// mode's share and speed vary from run to run. A median or peak rate
/// therefore depends on how much fast mode a run happened to get, while
/// the slow tail repeats.
pub fn sustained(rates: &[f64]) -> f64 {
    percentile(rates, 0.1)
}

/// The median (nearest rank) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentiles(&[5.0, 1.0], [0.5, 1.0]), [1.0, 5.0]);
        assert!(median(&[]).is_nan());
    }
}
