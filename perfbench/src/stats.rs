//! Percentiles under the benchmark's reporting rule: a median, and the
//! highest percentile that still has at least ten samples beyond it; and
//! the 90th percentile, the tail the end-to-end metrics bound.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Samples ranked above the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest rank (1-based) of the `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // `p * n / 100` is exact for the ladder's integral products; the
    // epsilon keeps a product like 99.9 * 10_000 from rounding up a rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// The 99th percentile when it has ten samples beyond it, otherwise
    /// the percentile named by `tail_pct`.
    pub tail: f64,
    pub tail_pct: f64,
}

impl Summary {
    /// `None` for an empty sample set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = tail_percentile(n).map_or(50.0, |p| p.min(99.0));
        let tail = percentile(&sorted, tail_pct);
        Some(Summary {
            n,
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            tail,
            tail_pct,
        })
    }
}

/// Median of a small set of values (e.g. repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..5_000 {
            let p = tail_percentile(n).expect("n >= 20 has a tail");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            // The next rung up would leave fewer than ten beyond.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                assert!(
                    beyond(n, higher) < MIN_BEYOND,
                    "n={n} p={p} higher={higher}"
                );
            }
        }
    }

    #[test]
    fn summary_reports_p99_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(beyond(1000, 99.0), 10);

        let few: Vec<f64> = (1..=300).map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert_eq!(s.tail_pct, 95.0, "300 samples cannot support p99 or p98");
        assert_eq!(s.tail, 285.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
