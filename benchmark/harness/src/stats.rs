//! Order statistics. Latencies stay whole nanoseconds from the clock to
//! the percentile; they become fractional µs/ms only when printed.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct` percent of the sample at or below it.
///
/// # Panics
/// Panics on an empty sample — every caller measures at least one
/// operation before asking.
pub fn percentile_ns(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile — the tail
/// percentile reported must leave at least ten.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of a sample (mean of the two middle values for an even
/// count), as `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50.0), 50);
        assert_eq!(percentile_ns(&v, 90.0), 90);
        assert_eq!(percentile_ns(&v, 99.0), 99);
        assert_eq!(percentile_ns(&v, 100.0), 100);
        assert_eq!(percentile_ns(&v, 0.0), 1);
        // The textbook nearest-rank example.
        let w = [15, 20, 35, 40, 50];
        assert_eq!(percentile_ns(&w, 5.0), 15);
        assert_eq!(percentile_ns(&w, 30.0), 20);
        assert_eq!(percentile_ns(&w, 40.0), 20);
        assert_eq!(percentile_ns(&w, 50.0), 35);
        assert_eq!(percentile_ns(&w, 100.0), 50);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }

    #[test]
    fn latencies_stay_nanoseconds() {
        // 10 µs and 11 µs differ by 10 %; 10_400 ns and 10_900 ns must
        // not collapse onto them.
        let v = [10_400u64, 10_900, 11_300];
        assert_eq!(percentile_ns(&v, 50.0), 10_900);
        assert_eq!(percentile_ns(&v, 50.0) as f64 / 1e3, 10.9);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(200_000, 99.0), 2_000);
        assert_eq!(samples_beyond(480, 90.0), 48);
        assert_eq!(samples_beyond(104, 90.0), 10);
        assert_eq!(samples_beyond(1, 90.0), 0);
    }

    #[test]
    fn median_of_an_even_sample_is_the_mean_of_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
