//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `v` by linear interpolation between the
/// closest ranks; 0 for an empty sample. Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v` (0 for an empty sample).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// `u64` samples scaled by `scale` (e.g. ns → µs), as floats.
pub fn scaled(v: &[u64], scale: f64) -> Vec<f64> {
    v.iter().map(|&x| x as f64 * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
