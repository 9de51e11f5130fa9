//! Order statistics over host-time samples.

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Timed samples of one probe or call site: p50, p99 and the count.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
}

impl Samples {
    /// Records one sample, nanoseconds.
    pub fn push(&mut self, ns: u64) {
        self.values.push(ns);
    }

    /// Reserves room for `n` more samples, so recording them does not
    /// allocate inside a measured region.
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile.
    pub fn percentile(&self, p: f64) -> u64 {
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&[7], 1.0), 7);
        assert_eq!(nearest_rank(&[], 50.0), 0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
