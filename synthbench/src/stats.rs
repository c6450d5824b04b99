//! Order statistics over timing samples.

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks, the convention of `numpy.quantile`'s default). `NaN` for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Half the width of the rank window [`band`] averages over.
pub const BAND: f64 = 0.1;

/// A smoothed `q`-quantile: the mean of the sorted values whose rank
/// lies within `q ± BAND` (at least the one nearest `q`). Averaging a
/// window of order statistics keeps the estimate from jumping across
/// a gap when per-instance times cluster in modes.
pub fn band(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let window: Vec<f64> = sorted
        .iter()
        .enumerate()
        .filter(|&(i, _)| ((i as f64 + 0.5) / n - q).abs() <= BAND)
        .map(|(_, &v)| v)
        .collect();
    if window.is_empty() {
        quantile(&sorted, q)
    } else {
        mean(&window)
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Ratio that reads 0 instead of `NaN` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
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
        let w: Vec<f64> = (0..30).map(f64::from).collect();
        // Ranks 0.4..=0.6 of 30 values: indices 12..=17.
        assert_eq!(band(&w, 0.5), 14.5);
    }
}
