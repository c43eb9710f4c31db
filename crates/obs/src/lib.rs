#![warn(missing_docs)]
//! Observability layer for the RoLo simulator: typed trace events, trace
//! sinks, windowed telemetry and wall-clock run profiling.
//!
//! The simulator core stays agnostic of *how* events are consumed: every
//! instrumented layer (driver, controllers, fault injection, rebuild)
//! emits [`SimEvent`]s into a [`TraceSink`] owned by the run's
//! observer (`rolo_core::observe`). The default sink is [`NullSink`],
//! so an untraced run pays a single predicted branch per emit point and
//! never constructs the event value. Swapping in a [`RingSink`] captures the most recent events in a
//! bounded ring buffer for post-mortem analysis (see the `trace_dump`
//! binary in `rolo-bench`).
//!
//! Alongside the event stream, the [`Telemetry`] hub is the one path for
//! named metric series: counters, gauges and quantile series rolled up
//! into fixed simulated-time windows, feeding the [`SloMonitor`]. It
//! reads no wall clock and the simulation never consults it, so a run
//! traced with a `RingSink` produces byte-identical results to an
//! untraced run. Quantiles come from `rolo_metrics::QuantileSketch`.
//! Wall-clock profiling ([`RunProfile`]) is the one deliberately
//! non-deterministic part and is excluded from deterministic
//! serializations.

pub mod event;
pub mod exemplar;
pub mod profile;
pub mod rca;
pub mod sink;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use event::{SimEvent, TracedEvent};
pub use exemplar::{
    ranks_before, slowest_spans, ExemplarRecorder, ExemplarSet, ExemplarSpan, WindowExemplars,
};
pub use profile::RunProfile;
pub use rca::{Culprit, PhaseBlame, RcaReport, WindowRca};
pub use sink::{NullSink, RingSink, TraceSink};
pub use slo::{
    BurnRatePolicy, Quantile, SloAlert, SloMonitor, SloObjective, SloSignal, SloSpec,
    WindowObservation,
};
pub use span::{
    critical_path, AttributionSummary, BgSpan, BgSpanKind, LegFlavor, PathAttribution, Phase,
    PhaseShare, PhaseSlice, PhaseStats, RequestSpan, SpanAnalysis, SpanCollector, SpanLeg, SpanSet,
    NUM_PHASES,
};
pub use timeseries::{
    ClosedWindow, RollupValue, SeriesId, SeriesKind, SeriesSnapshot, Telemetry, TelemetrySnapshot,
    WindowRollup,
};
