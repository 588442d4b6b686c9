//! Logarithmically bucketed latency histogram for per-packet delivery
//! times, cheap enough to update on the real-time driver's hot path.

use core::fmt;

/// Bucket boundaries in microseconds: powers of two from 1 µs up.
const BUCKETS: usize = 32;

/// A fixed-size log₂-bucketed histogram of microsecond latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_micros: u128,
    min_micros: u64,
    max_micros: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
            sum_micros: 0,
            min_micros: u64::MAX,
            max_micros: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, micros: u64) {
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        if let Some(count) = self.counts.get_mut(bucket) {
            *count += 1;
        }
        self.total += 1;
        self.sum_micros += u128::from(micros);
        self.min_micros = self.min_micros.min(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest observation, or `None` when empty.
    pub fn min_micros(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min_micros)
    }

    /// Largest observation, or `None` when empty.
    pub fn max_micros(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max_micros)
    }

    /// Interpolated quantile: linearly interpolates the rank position
    /// within the bucket that holds the `q`-th observation, clamped to
    /// the observed `[min, max]` range. Smoother than a bucket edge (one
    /// power of two of slack) at the cost of one pass over the 32
    /// buckets — the resolution aggregated swarm metrics need without
    /// keeping every sample.
    pub fn quantile_interp_micros(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The extreme quantiles are known exactly — interpolation inside
        // a shared bucket would otherwise drift above the true minimum
        // (e.g. observations 4 and 7 both land in the [4, 7] bucket, and
        // rank-1 interpolation splits the bucket rather than returning 4).
        if q <= 0.0 {
            return Some(self.min_micros as f64);
        }
        if q >= 1.0 {
            return Some(self.max_micros as f64);
        }
        let rank = (q * self.total as f64).max(1.0).min(self.total as f64);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                // Interpolate by how far into this bucket's count the
                // rank falls, assuming uniform spread across the bucket.
                let lo = bucket_lower_edge(bucket) as f64;
                let hi = bucket_upper_edge(bucket) as f64;
                let frac = (rank - seen as f64) / n as f64;
                let est = lo + (hi - lo) * frac;
                return Some(est.clamp(self.min_micros as f64, self.max_micros as f64));
            }
            seen += n;
        }
        Some(self.max_micros as f64)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_micros += other.sum_micros;
        if other.total > 0 {
            self.min_micros = self.min_micros.min(other.min_micros);
            self.max_micros = self.max_micros.max(other.max_micros);
        }
    }
}

/// `new()`: a derived default would start `min` at 0, and the
/// quantiles' `[min, max]` clamp and `merge`'s smaller-min rule would
/// then never see the real minimum.
impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Lower edge (inclusive) of bucket `b` in microseconds.
fn bucket_lower_edge(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Upper edge (inclusive) of bucket `b` in microseconds.
fn bucket_upper_edge(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (
            self.min_micros(),
            self.quantile_interp_micros(0.99),
            self.max_micros(),
        ) {
            (Some(min), Some(p99), Some(max)) => write!(
                f,
                "n={} min={}us mean={:.1}us p99={:.0}us max={}us",
                self.total,
                min,
                self.sum_micros as f64 / self.total as f64,
                p99,
                max
            ),
            _ => f.write_str("n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarises() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_micros(), Some(1));
        assert_eq!(h.max_micros(), Some(1000));
        assert!(h.to_string().contains(" mean=221.4us "), "{h}");
    }

    #[test]
    fn empty_histogram_has_no_summary() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_micros(), None);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn default_is_new_after_the_same_records_and_a_merge() {
        // A zero `min` would pull the [min, max] clamp down: samples
        // {900, 950, 1000} would read p10 682 µs instead of 900.
        let (mut defaulted, mut fresh) = (LatencyHistogram::default(), LatencyHistogram::new());
        assert_eq!(defaulted, fresh);
        for v in [900u64, 950, 1000] {
            defaulted.record(v);
            fresh.record(v);
        }
        assert_eq!(defaulted, fresh);
        assert_eq!(defaulted.min_micros(), Some(900));
        assert_eq!(defaulted.quantile_interp_micros(0.1), Some(900.0));
        let mut merged = LatencyHistogram::default();
        merged.merge(&fresh);
        assert_eq!(merged, fresh);
        assert_eq!(merged.quantile_interp_micros(0.1), Some(900.0));
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = LatencyHistogram::new();
        a.record(5);
        let mut b = LatencyHistogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_micros(), Some(5));
        assert_eq!(a.max_micros(), Some(500));
    }

    #[test]
    fn interpolated_quantile_is_within_bucket_and_monotone() {
        let mut h = LatencyHistogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_interp_micros(0.5).expect("non-empty");
        let p90 = h.quantile_interp_micros(0.9).expect("non-empty");
        let p99 = h.quantile_interp_micros(0.99).expect("non-empty");
        // Uniform 0..1000: the true p50 is ~500, inside the [512, 1023]
        // bucket's lower half; interpolation must beat the coarse upper
        // edge (1023) by landing in the bucket's interior.
        assert!((256.0..1023.0).contains(&p50), "p50={p50}");
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
        assert!(p99 <= 1023.0);
    }

    #[test]
    fn interpolated_quantile_single_value() {
        let mut h = LatencyHistogram::new();
        h.record(700);
        // One observation: every quantile is that observation (clamping
        // to [min, max] collapses the bucket's span).
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_interp_micros(q), Some(700.0));
        }
    }

    #[test]
    fn interpolated_quantile_empty_and_clamped() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_interp_micros(0.5), None);
        let mut h = LatencyHistogram::new();
        h.record(3);
        h.record(1000);
        // q outside [0, 1] clamps rather than panicking.
        assert_eq!(h.quantile_interp_micros(-1.0), Some(3.0));
        assert_eq!(h.quantile_interp_micros(2.0), Some(1000.0));
    }

    #[test]
    fn interpolated_quantile_extremes_are_exact() {
        // 4 and 7 share the [4, 7] bucket: without the short-circuit,
        // q = 0 would interpolate to the bucket interior, not min.
        let mut h = LatencyHistogram::new();
        h.record(4);
        h.record(7);
        assert_eq!(h.quantile_interp_micros(0.0), Some(4.0));
        assert_eq!(h.quantile_interp_micros(1.0), Some(7.0));
        for v in [1u64, 90, 3000] {
            h.record(v);
        }
        assert_eq!(h.quantile_interp_micros(0.0), Some(1.0));
        assert_eq!(h.quantile_interp_micros(1.0), Some(3000.0));
    }

    #[test]
    fn merge_with_empty_is_identity_in_both_directions() {
        let mut a = LatencyHistogram::new();
        a.record(12);
        a.record(900);
        let snapshot = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, snapshot);

        let mut empty = LatencyHistogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
        assert_eq!(empty.quantile_interp_micros(0.0), Some(12.0));

        let mut both = LatencyHistogram::new();
        both.merge(&LatencyHistogram::new());
        assert_eq!(both.count(), 0);
        assert_eq!(both.quantile_interp_micros(0.5), None);
    }

    #[test]
    fn merged_quantiles_span_disjoint_shards() {
        // Two shards with disjoint latency ranges: after the merge the
        // extreme quantiles come from different shards and the median
        // sits between them.
        let mut fast = LatencyHistogram::new();
        for v in 1..=100u64 {
            fast.record(v);
        }
        let mut slow = LatencyHistogram::new();
        for v in 10_000..=10_100u64 {
            slow.record(v);
        }
        fast.merge(&slow);
        assert_eq!(fast.quantile_interp_micros(0.0), Some(1.0));
        assert_eq!(fast.quantile_interp_micros(1.0), Some(10_100.0));
        let p50 = fast.quantile_interp_micros(0.5).expect("non-empty");
        assert!((100.0..=10_000.0).contains(&p50), "p50={p50}");
    }

    #[test]
    fn interpolated_quantile_merged_histograms_agree_with_direct() {
        let mut direct = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 0..500u64 {
            direct.record(v);
            a.record(v);
        }
        for v in 500..1000u64 {
            direct.record(v);
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, direct);
        assert_eq!(
            a.quantile_interp_micros(0.9),
            direct.quantile_interp_micros(0.9)
        );
    }
}
