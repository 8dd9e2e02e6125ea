//! Order statistics over small samples.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    sli_workload::percentile(values, q).unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
    }
}

/// `numerator / denominator`, 0 when the denominator is 0. Never `-0.0`
/// (the sum of no floats), which would print as "-0".
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator + 0.0
    }
}
