#![warn(missing_docs)]
//! Statistics collection for the RoLo simulator.
//!
//! The paper's evaluation reports its measurements through the modules
//! here:
//!
//! * [`response`] — per-request response-time statistics (mean, extremes,
//!   percentiles) backing every "average response time" figure;
//! * [`sketch`] — the mergeable log-bucketed quantile sketch, the one
//!   quantile estimator behind response-time percentiles and every
//!   telemetry quantile series;
//! * [`intervals`] — phase tracking for logging/destaging periods, from
//!   which the *destaging interval ratio* and *destaging energy ratio* of
//!   Fig. 2 are computed;
//! * [`timeline`] — sampled time-series (e.g. occupied logging capacity
//!   over time, Fig. 2a).
//!
//! Energy itself is metered per disk in `rolo-disk`; this crate supplies
//! the aggregation-side machinery.

pub mod intervals;
pub mod response;
pub mod sketch;
pub mod timeline;

pub use intervals::{IntervalTracker, Phase, PhaseSummary};
pub use response::ResponseStats;
pub use sketch::{exact_percentile, QuantileSketch, SketchDigest};
pub use timeline::Timeline;
