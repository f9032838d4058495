//! Order statistics used by every reported number.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One latency class of a workload: the share of a round's ops it holds
/// and the median latency measured for it.
#[derive(Debug, Clone)]
pub struct ClassShare {
    pub name: String,
    pub share: f64,
    pub median_ms: f64,
}

/// Distance (as a fraction of all ops) from the rank of quantile `q` to the
/// nearest boundary between two latency classes, with the classes laid out
/// by ascending median. A pooled percentile whose rank sits on a boundary
/// flips between two classes from run to run; one in the middle of a class
/// does not.
pub fn rank_margin(classes: &[ClassShare], q: f64) -> f64 {
    let mut sorted = classes.to_vec();
    sorted.sort_by(|a, b| a.median_ms.total_cmp(&b.median_ms));
    let mut margin = f64::INFINITY;
    let mut cum = 0.0;
    for c in &sorted[..sorted.len() - 1] {
        cum += c.share;
        margin = margin.min((q - cum).abs());
    }
    margin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn rank_margin_sees_boundaries() {
        let class =
            |name: &str, share, median_ms| ClassShare { name: name.into(), share, median_ms };
        let thirds =
            [class("a", 1.0 / 3.0, 10.0), class("b", 1.0 / 3.0, 30.0), class("c", 1.0 / 3.0, 90.0)];
        assert!((rank_margin(&thirds, 0.5) - 1.0 / 6.0).abs() < 1e-9);
        // Unequal shares are laid out by latency, not by declaration order.
        let skewed = [class("slow", 0.2, 80.0), class("mid", 0.6, 25.0), class("fast", 0.2, 8.0)];
        assert!((rank_margin(&skewed, 0.5) - 0.3).abs() < 1e-9);
        assert!((rank_margin(&skewed, 0.9) - 0.1).abs() < 1e-9);
        assert_eq!(rank_margin(&[class("only", 1.0, 5.0)], 0.5), f64::INFINITY);
    }
}
