//! Lock-free request-latency tracking with fixed power-of-two buckets.
//!
//! Workers record one sample per answered request — the elapsed time from
//! admission to the reply being handed to the I/O loop — by
//! incrementing a single atomic bucket counter, so the hot path costs one
//! `fetch_add` and no allocation. Percentiles are then read as the upper
//! bound of the bucket where the requested rank falls, which is exact to
//! within a factor of two and, unlike a sample reservoir, deterministic for
//! a given multiset of samples regardless of arrival order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: bucket `i` covers `[2^i, 2^(i+1))` microseconds
/// (bucket 0 also absorbs sub-microsecond samples), so 64 buckets span
/// every representable `u64` microsecond count.
const BUCKETS: usize = 64;

/// A histogram of request latencies in power-of-two microsecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

/// Bucket index for a sample of `micros` microseconds.
fn bucket_index(micros: u64) -> usize {
    63 - micros.max(1).leading_zeros() as usize
}

/// Inclusive upper bound, in microseconds, of bucket `index`.
fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

impl LatencyHistogram {
    /// Record one request latency.
    pub fn record(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .sum()
    }

    /// The latency (microseconds) at `percentile` (in `0.0..=100.0`):
    /// the upper bound of the first bucket whose cumulative count reaches
    /// the requested rank. Returns 0 when no samples have been recorded.
    pub fn percentile(&self, percentile: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // ceil(total * p/100), clamped to at least rank 1.
        let rank = ((total as f64) * (percentile / 100.0)).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (index, count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return bucket_upper_bound(index);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let histogram = LatencyHistogram::default();
        assert_eq!(histogram.samples(), 0);
        assert_eq!(histogram.percentile(50.0), 0);
        assert_eq!(histogram.percentile(99.0), 0);
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let histogram = LatencyHistogram::default();
        // 90 fast samples in [2, 4) us, 10 slow in [1024, 2048) us.
        for _ in 0..90 {
            histogram.record(Duration::from_micros(3));
        }
        for _ in 0..10 {
            histogram.record(Duration::from_micros(1500));
        }
        assert_eq!(histogram.samples(), 100);
        assert_eq!(histogram.percentile(50.0), 3);
        assert_eq!(histogram.percentile(90.0), 3);
        assert_eq!(histogram.percentile(95.0), 2047);
        assert_eq!(histogram.percentile(99.0), 2047);
    }

    #[test]
    fn percentile_order_is_monotone() {
        let histogram = LatencyHistogram::default();
        for micros in [1u64, 5, 17, 90, 400, 9000, 70_000] {
            histogram.record(Duration::from_micros(micros));
        }
        let p50 = histogram.percentile(50.0);
        let p95 = histogram.percentile(95.0);
        let p99 = histogram.percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn sub_microsecond_samples_land_in_the_first_bucket() {
        let histogram = LatencyHistogram::default();
        histogram.record(Duration::from_nanos(120));
        assert_eq!(histogram.samples(), 1);
        assert_eq!(histogram.percentile(99.0), 1);
    }
}
