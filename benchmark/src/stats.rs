//! Order statistics over small samples.

/// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The fastest sample: the time an operation takes when the host leaves
/// the process alone. Interference on a shared host only ever adds time, and
/// it comes and goes within a second, so over dozens of repetitions of a
/// short operation the minimum is the one statistic that does not move with
/// it; medians and even the 10th percentile do (see the README's numbers).
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.50)
}

/// The lower middle value, never interpolated: a per-pass count that
/// drifts (tables that grow) still reports a count that occurred.
pub fn middle(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_ignore_input_order() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.10) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.10), 0.0);
        assert_eq!(quantile(&[7.0], 0.10), 7.0);
        assert_eq!(middle(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(middle(&[]), 0.0);
        assert_eq!(best(&v), 1.0);
        assert_eq!(best(&[]), 0.0);
    }
}
