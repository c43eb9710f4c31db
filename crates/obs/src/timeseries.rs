//! Fixed-interval windowed telemetry rollups with bounded retention.
//!
//! A [`Telemetry`] hub holds labeled series — counters, gauges and
//! quantile series — and rolls them up into fixed simulated-time
//! windows (`[k·w, (k+1)·w)` for a window length `w`). Closing a window
//! freezes one [`WindowRollup`] per series: counters report the delta
//! over the window, gauges the last/mean/min/max of their samples, and
//! quantile series a [`SketchDigest`] of the window's
//! [`QuantileSketch`]. Closed windows are retained in a bounded ring
//! (oldest evicted first) so a week-long trace holds O(retain) state
//! per series no matter how long it runs.
//!
//! The hub is driven entirely by simulated time: callers record
//! observations as they happen and call [`Telemetry::advance`] from an
//! existing periodic hook (the driver's power-sampling cadence), which
//! closes every window whose end has passed and reports them for
//! online consumers (the SLO monitor in [`crate::slo`]). Nothing here
//! reads the wall clock, so runs stay deterministic, and the hub is
//! never consulted by the simulation itself — enabling or disabling
//! telemetry cannot perturb outcomes.

use rolo_metrics::{QuantileSketch, SketchDigest};
use rolo_sim::{Duration, SimTime};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// Handle to a registered series; cheap to copy and index with.
pub type SeriesId = usize;

/// What a telemetry series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SeriesKind {
    /// Monotonically increasing total; windows report the delta.
    Counter,
    /// Point-in-time level; windows report last/mean/min/max.
    Gauge,
    /// Distribution; windows report a quantile digest.
    Quantile,
}

/// One series' frozen value for one closed window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RollupValue {
    /// Counter increase over the window.
    Counter {
        /// Total increments that landed in the window.
        delta: f64,
    },
    /// Gauge sample statistics over the window.
    Gauge {
        /// Level at window close (carried forward when unsampled).
        last: f64,
        /// Mean of the window's samples (= `last` when unsampled).
        mean: f64,
        /// Smallest sample (= `last` when unsampled).
        min: f64,
        /// Largest sample (= `last` when unsampled).
        max: f64,
        /// Samples observed in the window.
        samples: u64,
    },
    /// Quantile digest of the window's observations.
    Quantile(SketchDigest),
}

/// One closed window of one series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowRollup {
    /// Window index `k` (the window covered `[k·w, (k+1)·w)`).
    pub window: u64,
    /// Window start time.
    pub start: SimTime,
    /// The frozen rollup.
    pub value: RollupValue,
}

#[derive(Debug, Clone)]
struct Series {
    name: String,
    kind: SeriesKind,
    /// Counter cumulative total / latest gauge level.
    cum: f64,
    /// Counter cumulative total at the last window close.
    prev_cum: f64,
    gauge_sum: f64,
    gauge_min: f64,
    gauge_max: f64,
    gauge_samples: u64,
    sketch: QuantileSketch,
    windows: VecDeque<WindowRollup>,
}

impl Series {
    fn close_window(&mut self, window: u64, start: SimTime, retain: usize) {
        let value = match self.kind {
            SeriesKind::Counter => {
                let delta = self.cum - self.prev_cum;
                self.prev_cum = self.cum;
                RollupValue::Counter { delta }
            }
            SeriesKind::Gauge => {
                let v = if self.gauge_samples == 0 {
                    RollupValue::Gauge {
                        last: self.cum,
                        mean: self.cum,
                        min: self.cum,
                        max: self.cum,
                        samples: 0,
                    }
                } else {
                    RollupValue::Gauge {
                        last: self.cum,
                        mean: self.gauge_sum / self.gauge_samples as f64,
                        min: self.gauge_min,
                        max: self.gauge_max,
                        samples: self.gauge_samples,
                    }
                };
                self.gauge_sum = 0.0;
                self.gauge_min = 0.0;
                self.gauge_max = 0.0;
                self.gauge_samples = 0;
                v
            }
            SeriesKind::Quantile => {
                let digest = self.sketch.digest();
                self.sketch = QuantileSketch::new();
                RollupValue::Quantile(digest)
            }
        };
        self.windows.push_back(WindowRollup {
            window,
            start,
            value,
        });
        while self.windows.len() > retain {
            self.windows.pop_front();
        }
    }
}

/// A closed window, as reported by [`Telemetry::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedWindow {
    /// Window index.
    pub window: u64,
    /// Window start time.
    pub start: SimTime,
    /// Window end time (exclusive).
    pub end: SimTime,
}

/// Windowed rollup hub: labeled series, fixed-interval windows, bounded
/// retention. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct Telemetry {
    window: Duration,
    retain: usize,
    /// Index of the currently open window.
    open: u64,
    series: Vec<Series>,
    index: BTreeMap<String, SeriesId>,
}

impl Telemetry {
    /// Creates a hub with the given window length and per-series
    /// retention (closed windows kept before the oldest is evicted).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `retain` is zero.
    pub fn new(window: Duration, retain: usize) -> Self {
        assert!(!window.is_zero(), "telemetry window must be positive");
        assert!(retain > 0, "telemetry retention must be positive");
        Telemetry {
            window,
            retain,
            open: 0,
            series: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Registers (or looks up) a counter series named `name`.
    pub fn counter(&mut self, name: &str) -> SeriesId {
        self.register(name, SeriesKind::Counter)
    }

    /// Registers (or looks up) a gauge series named `name`.
    pub fn gauge(&mut self, name: &str) -> SeriesId {
        self.register(name, SeriesKind::Gauge)
    }

    /// Registers (or looks up) a quantile series named `name`.
    pub fn quantile(&mut self, name: &str) -> SeriesId {
        self.register(name, SeriesKind::Quantile)
    }

    fn register(&mut self, name: &str, kind: SeriesKind) -> SeriesId {
        if let Some(&id) = self.index.get(name) {
            assert_eq!(
                self.series[id].kind, kind,
                "series `{name}` re-registered with a different kind"
            );
            return id;
        }
        let id = self.series.len();
        self.series.push(Series {
            name: name.to_string(),
            kind,
            cum: 0.0,
            prev_cum: 0.0,
            gauge_sum: 0.0,
            gauge_min: 0.0,
            gauge_max: 0.0,
            gauge_samples: 0,
            sketch: QuantileSketch::new(),
            windows: VecDeque::new(),
        });
        self.index.insert(name.to_string(), id);
        id
    }

    /// Increments a counter series.
    pub fn add(&mut self, id: SeriesId, delta: f64) {
        debug_assert_eq!(self.series[id].kind, SeriesKind::Counter);
        self.series[id].cum += delta;
    }

    /// Samples a gauge series.
    pub fn set(&mut self, id: SeriesId, value: f64) {
        let s = &mut self.series[id];
        debug_assert_eq!(s.kind, SeriesKind::Gauge);
        s.cum = value;
        if s.gauge_samples == 0 {
            s.gauge_min = value;
            s.gauge_max = value;
        } else {
            s.gauge_min = s.gauge_min.min(value);
            s.gauge_max = s.gauge_max.max(value);
        }
        s.gauge_sum += value;
        s.gauge_samples += 1;
    }

    /// Records one observation into a quantile series.
    pub fn observe(&mut self, id: SeriesId, value: f64) {
        debug_assert_eq!(self.series[id].kind, SeriesKind::Quantile);
        self.series[id].sketch.record(value);
    }

    /// Closes every window whose end is at or before `now`, returning
    /// them oldest first. Call this from any periodic hook; window
    /// boundaries depend only on the window length, never on the call
    /// cadence, so a coarse caller just closes several windows at once.
    pub fn advance(&mut self, now: SimTime) -> Vec<ClosedWindow> {
        let mut closed = Vec::new();
        loop {
            let start = SimTime::ZERO + self.window * self.open;
            let end = start + self.window;
            if now < end {
                return closed;
            }
            for s in &mut self.series {
                s.close_window(self.open, start, self.retain);
            }
            closed.push(ClosedWindow {
                window: self.open,
                start,
                end,
            });
            self.open += 1;
        }
    }

    /// A series' rollup for a closed window still in retention.
    pub fn rollup(&self, id: SeriesId, window: u64) -> Option<&WindowRollup> {
        let s = &self.series[id];
        let first = s.windows.front()?.window;
        let i = window.checked_sub(first)? as usize;
        s.windows.get(i)
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series is registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Deterministic, name-sorted export of every series' retained
    /// windows.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            window_us: self.window.as_micros(),
            retain: self.retain,
            series: self
                .index
                .values()
                .map(|&id| {
                    let s = &self.series[id];
                    SeriesSnapshot {
                        name: s.name.clone(),
                        kind: s.kind,
                        windows: s.windows.iter().cloned().collect(),
                    }
                })
                .collect(),
        }
    }
}

/// One series' exported state: label, kind and retained windows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesSnapshot {
    /// Dotted series label, e.g. `disk.3.dispatch_bytes`.
    pub name: String,
    /// Counter, gauge or quantile.
    pub kind: SeriesKind,
    /// Retained closed windows, oldest first.
    pub windows: Vec<WindowRollup>,
}

/// Deterministic, name-sorted export of a [`Telemetry`] hub.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct TelemetrySnapshot {
    /// Window length in microseconds.
    pub window_us: u64,
    /// Per-series retention bound the hub ran with.
    pub retain: usize,
    /// Every series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl TelemetrySnapshot {
    /// Looks up an exported series by name.
    pub fn get(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn counter_windows_report_deltas() {
        let mut h = Telemetry::new(Duration::from_secs(10), 8);
        let c = h.counter("io.bytes");
        h.add(c, 100.0);
        assert!(h.advance(t(5)).is_empty(), "window still open");
        h.add(c, 50.0);
        let closed = h.advance(t(10));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window, 0);
        match &h.rollup(c, 0).unwrap().value {
            RollupValue::Counter { delta } => assert_eq!(*delta, 150.0),
            v => panic!("wrong rollup: {v:?}"),
        }
        // Next window sees only new increments.
        h.add(c, 7.0);
        h.advance(t(20));
        match &h.rollup(c, 1).unwrap().value {
            RollupValue::Counter { delta } => assert_eq!(*delta, 7.0),
            v => panic!("wrong rollup: {v:?}"),
        }
    }

    #[test]
    fn gauge_carries_forward_when_unsampled() {
        let mut h = Telemetry::new(Duration::from_secs(10), 8);
        let g = h.gauge("power_w");
        h.set(g, 400.0);
        h.set(g, 200.0);
        h.advance(t(10));
        match &h.rollup(g, 0).unwrap().value {
            RollupValue::Gauge {
                last,
                mean,
                min,
                max,
                samples,
            } => {
                assert_eq!(*last, 200.0);
                assert_eq!(*mean, 300.0);
                assert_eq!(*min, 200.0);
                assert_eq!(*max, 400.0);
                assert_eq!(*samples, 2);
            }
            v => panic!("wrong rollup: {v:?}"),
        }
        // No samples in window 1: the last level carries forward.
        h.advance(t(20));
        match &h.rollup(g, 1).unwrap().value {
            RollupValue::Gauge {
                last,
                mean,
                samples,
                ..
            } => {
                assert_eq!(*last, 200.0);
                assert_eq!(*mean, 200.0);
                assert_eq!(*samples, 0);
            }
            v => panic!("wrong rollup: {v:?}"),
        }
    }

    #[test]
    fn quantile_windows_reset_between_windows() {
        let mut h = Telemetry::new(Duration::from_secs(10), 8);
        let q = h.quantile("response_us");
        for v in [10.0, 20.0, 30.0] {
            h.observe(q, v);
        }
        h.advance(t(10));
        h.observe(q, 1000.0);
        h.advance(t(20));
        let w0 = match &h.rollup(q, 0).unwrap().value {
            RollupValue::Quantile(d) => d.clone(),
            v => panic!("wrong rollup: {v:?}"),
        };
        let w1 = match &h.rollup(q, 1).unwrap().value {
            RollupValue::Quantile(d) => d.clone(),
            v => panic!("wrong rollup: {v:?}"),
        };
        assert_eq!(w0.count, 3);
        assert_eq!(w1.count, 1, "window sketch must reset");
        assert_eq!(w1.p50, Some(1000.0));
    }

    #[test]
    fn coarse_advance_closes_all_elapsed_windows() {
        let mut h = Telemetry::new(Duration::from_secs(10), 100);
        let c = h.counter("x");
        h.add(c, 1.0);
        let closed = h.advance(t(55));
        assert_eq!(closed.len(), 5);
        assert_eq!(closed[0].window, 0);
        assert_eq!(closed[4].window, 4);
        assert_eq!(closed[4].end, t(50));
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut h = Telemetry::new(Duration::from_secs(1), 3);
        let c = h.counter("x");
        h.advance(t(10));
        assert!(h.rollup(c, 6).is_none(), "evicted");
        assert!(h.rollup(c, 7).is_some());
        assert!(h.rollup(c, 9).is_some());
        assert!(h.rollup(c, 10).is_none(), "still open");
        let snap = h.snapshot();
        assert_eq!(snap.get("x").unwrap().windows.len(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut h = Telemetry::new(Duration::from_secs(1), 1);
        h.counter("x");
        h.gauge("x");
    }
}
