//! Order statistics and process memory readings.

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A percentile and the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
    /// Samples strictly above it.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least ten samples lie beyond it, the rule for
    /// reporting a percentile.
    pub fn reportable(&self) -> bool {
        self.beyond >= 10
    }
}

/// The `p`-quantile (`0 <= p <= 1`) of `values`, interpolated linearly
/// between the two nearest ranks, so the 0.5-quantile is the median.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let h = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    let value = v[lo] + (h - lo as f64) * (v[hi] - v[lo]);
    Some(Percentile {
        value,
        samples: v.len(),
        beyond: v.iter().filter(|&&x| x > value).count(),
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_and_needs_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 0.9).unwrap();
        assert!((p90.value - 90.1).abs() < 1e-9);
        assert_eq!(p90.beyond, 10);
        assert!(p90.reportable());
        assert!(!percentile(&v[..90], 0.9).unwrap().reportable());
        let p50 = percentile(&v[..20], 0.5).unwrap();
        assert_eq!(p50.value, 10.5);
        assert_eq!(Some(p50.value), median(&v[..20]));
        assert!(p50.reportable());
        assert_eq!(percentile(&[3.0], 0.9).unwrap().value, 3.0);
    }
}
