//! Order statistics over timing samples, and the metric report a run prints.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the middle pair for an even count); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1`; NaN if `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it (p90 when there are fewer than 100 samples).
pub fn tail(xs: &[f64]) -> f64 {
    let q = match xs.len() {
        n if n >= 10_000 => 0.999,
        n if n >= 1_000 => 0.99,
        _ => 0.9,
    };
    quantile(xs, q)
}

/// Metrics of one run, by name, each with its unit.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// The value and unit of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics.get(name).copied()
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Every metric, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.metrics.iter().map(|(&n, &(v, u))| (n, v, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs), quantile(&xs, 0.99));
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&few), quantile(&few, 0.9));
    }
}
