//! Streaming response-time statistics.

use crate::sketch::QuantileSketch;
use rolo_sim::Duration;
use serde::{Deserialize, Serialize};

/// Streaming response-time statistics: count, mean (Welford), extremes,
/// plus a [`QuantileSketch`] of microseconds for percentile queries.
///
/// # Example
///
/// ```
/// use rolo_metrics::ResponseStats;
/// use rolo_sim::Duration;
///
/// let mut s = ResponseStats::new();
/// s.record(Duration::from_millis(2));
/// s.record(Duration::from_millis(4));
/// assert_eq!(s.count(), 2);
/// assert!((s.mean().as_millis_f64() - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseStats {
    count: u64,
    mean_us: f64,
    m2_us: f64,
    min: Duration,
    max: Duration,
    sketch: QuantileSketch,
}

impl Default for ResponseStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        ResponseStats {
            count: 0,
            mean_us: 0.0,
            m2_us: 0.0,
            min: Duration::MAX,
            max: Duration::ZERO,
            sketch: QuantileSketch::new(),
        }
    }

    /// Records one response time.
    pub fn record(&mut self, d: Duration) {
        self.count += 1;
        let x = d.as_micros() as f64;
        let delta = x - self.mean_us;
        self.mean_us += delta / self.count as f64;
        self.m2_us += delta * (x - self.mean_us);
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        self.sketch.record(d.as_micros() as f64);
    }

    /// Number of recorded responses.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean response time (zero if empty).
    pub fn mean(&self) -> Duration {
        Duration::from_micros(self.mean_us.round() as u64)
    }

    /// Mean as fractional milliseconds (the unit of Fig. 12).
    pub fn mean_ms(&self) -> f64 {
        self.mean_us / 1e3
    }

    /// Population standard deviation (zero if fewer than two samples).
    pub fn stddev(&self) -> Duration {
        if self.count < 2 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.m2_us / self.count as f64).sqrt().round() as u64)
    }

    /// Fastest recorded response, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then_some(self.min)
    }

    /// Slowest recorded response, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then_some(self.max)
    }

    /// The `p`-th percentile (0–100) from the quantile sketch, rounded
    /// to whole microseconds: within 1 % of the exact sample percentile
    /// plus at most half a microsecond of rounding. `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        self.sketch
            .percentile(p)
            .map(|us| Duration::from_micros(us.round() as u64))
    }

    /// Merges another collector into this one. The merged mean/variance
    /// use the standard parallel-Welford combination.
    pub fn merge(&mut self, other: &ResponseStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean_us - self.mean_us;
        self.mean_us += delta * n2 / (n1 + n2);
        self.m2_us += other.m2_us + delta * delta * n1 * n2 / (n1 + n2);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sketch.merge(&other.sketch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::exact_percentile;
    use proptest::prelude::*;

    #[test]
    fn empty_stats() {
        let s = ResponseStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Duration::ZERO);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert_eq!(s.stddev(), Duration::ZERO);
    }

    #[test]
    fn mean_and_extremes() {
        let mut s = ResponseStats::new();
        for ms in [1u64, 2, 3, 4, 5] {
            s.record(Duration::from_millis(ms));
        }
        assert_eq!(s.mean(), Duration::from_millis(3));
        assert_eq!(s.min().unwrap(), Duration::from_millis(1));
        assert_eq!(s.max().unwrap(), Duration::from_millis(5));
        // Population stddev of 1..5 ms = sqrt(2) ms.
        assert!((s.stddev().as_millis_f64() - 2.0f64.sqrt()).abs() < 0.01);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut all = ResponseStats::new();
        let mut a = ResponseStats::new();
        let mut b = ResponseStats::new();
        for i in 0..100u64 {
            let d = Duration::from_micros(100 + i * 37);
            all.record(d);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean_ms() - all.mean_ms()).abs() < 1e-9);
        assert!((a.stddev().as_micros() as f64 - all.stddev().as_micros() as f64).abs() <= 1.0);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = ResponseStats::new();
        a.record(Duration::from_millis(7));
        let b = ResponseStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = ResponseStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), Duration::from_millis(7));
    }

    /// Raw draws for [`durations`]: a value and a power of ten.
    fn draws() -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec((1u64..100_000, 0u64..4), 1..300)
    }

    /// Response times from 1 µs up to ~100 s: each raw value times
    /// its power of ten.
    fn durations(raw: &[(u64, u64)]) -> Vec<Duration> {
        raw.iter()
            .map(|&(v, decade)| Duration::from_micros(v * 10u64.pow(decade as u32)))
            .collect()
    }

    const LADDER: [f64; 7] = [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0];

    proptest! {
        #[test]
        fn prop_percentiles_track_exact(raw in draws()) {
            let ds = durations(&raw);
            let mut s = ResponseStats::new();
            for &d in &ds {
                s.record(d);
            }
            let us: Vec<f64> = ds.iter().map(|d| d.as_micros() as f64).collect();
            for p in LADDER {
                let exact = exact_percentile(&us, p).unwrap();
                let est = s.percentile(p).unwrap().as_micros() as f64;
                // Sketch error (< 1 %) plus rounding to whole µs.
                prop_assert!(
                    (est - exact).abs() <= 0.01 * exact + 0.5,
                    "p{}: est {} vs exact {}", p, est, exact
                );
            }
        }

        #[test]
        fn prop_merge_matches_single_stream(a in draws(), b in draws()) {
            let (a, b) = (durations(&a), durations(&b));
            let mut whole = ResponseStats::new();
            let mut left = ResponseStats::new();
            let mut right = ResponseStats::new();
            for &d in &a {
                whole.record(d);
                left.record(d);
            }
            for &d in &b {
                whole.record(d);
                right.record(d);
            }
            left.merge(&right);
            for p in LADDER {
                prop_assert_eq!(left.percentile(p), whole.percentile(p), "p{}", p);
            }
        }

        #[test]
        fn prop_mean_within_extremes(values in proptest::collection::vec(1u64..10_000_000, 1..100)) {
            let mut s = ResponseStats::new();
            for v in &values {
                s.record(Duration::from_micros(*v));
            }
            prop_assert!(s.mean() >= s.min().unwrap());
            prop_assert!(s.mean() <= s.max().unwrap());
            prop_assert_eq!(s.count(), values.len() as u64);
        }
    }
}
