//! The run's observer: one owner for every observation stream the
//! simulation context feeds (DESIGN.md §9, §12, §14).
//!
//! [`SimCtx`](crate::SimCtx) holds one `Observer` and makes one call
//! into it per instrumented path: a dispatch, a completed leg, a user
//! admission and completion, a power-state change, a power sample, a
//! background span opening or closing, and every trace event. The
//! observer owns the trace sink, the span collector with its open
//! background spans, the telemetry hub with its SLO monitor and
//! exemplar recorder, and the alert list. At end of run the driver
//! calls `finish` once and gets every stream back as a
//! [`RunObservations`], with the root-cause pass already run when
//! [`SimConfig::rca_enabled`].
//!
//! Nothing here feeds back into the simulation and nothing schedules
//! an event, so a run's [`crate::SimReport`] is byte-identical whichever
//! streams are on. With every stream off, each hook costs one `Option`
//! check per stream it feeds (a cached bool for trace events).

use crate::config::{SimConfig, SLO_BURN, TELEMETRY_RETAIN, TELEMETRY_WINDOW};
use rolo_disk::{Disk, DiskId, DiskRequest, PowerState, Priority};
use rolo_obs::{critical_path, rca, BgSpanKind, LegFlavor, SpanCollector, SpanSet, NUM_PHASES};
use rolo_obs::{ExemplarRecorder, ExemplarSet, NullSink, RcaReport, SimEvent, TraceSink};
use rolo_obs::{
    Phase, RollupValue, SeriesId, SloAlert, SloMonitor, SloSignal, Telemetry, TelemetrySnapshot,
    WindowObservation,
};
use rolo_sim::{Duration, SimTime};
use rolo_trace::ReqKind;
use std::collections::HashMap;

/// Everything a run observed out-of-band of its
/// [`crate::SimReport`]: the trace sink, per-request spans (when
/// enabled), the telemetry snapshot (when enabled) and every SLO alert
/// raised online. All of it is observational — none of it feeds back
/// into the simulation — so the report stays byte-identical no matter
/// which parts are on.
#[derive(Debug)]
pub struct RunObservations {
    /// The trace sink handed in by the caller, for draining.
    pub sink: Box<dyn TraceSink>,
    /// Completed request/background spans, when span recording was on.
    pub spans: Option<SpanSet>,
    /// Retained telemetry windows, when telemetry was on.
    pub telemetry: Option<TelemetrySnapshot>,
    /// SLO alerts raised during the run, in emission order.
    pub slo_alerts: Vec<SloAlert>,
    /// Windowed tail exemplars (the top-k slowest spans per telemetry
    /// window, DESIGN.md §14), when capture was on. Empty unless span
    /// recording also ran — the recorder needs finished spans.
    pub exemplars: Option<ExemplarSet>,
    /// Root-cause attribution of every SLO alert window, when
    /// [`crate::SimConfig::rca_enabled`].
    pub rca: Option<RcaReport>,
}

/// The observer's half of the telemetry pipeline: the windowed rollup
/// hub, pre-registered series ids for every emit point, the SLO
/// monitor fed by each closed window, and the tail-exemplar recorder.
#[derive(Debug)]
struct Hub {
    hub: Telemetry,
    monitor: SloMonitor,
    /// Response-time quantile series (µs) — the series SLO latency
    /// objectives read.
    response_us: SeriesId,
    /// Array power gauge (W) — the series energy budgets read.
    power_w: SeriesId,
    /// Completed user requests per window.
    completions: SeriesId,
    /// Dispatched bytes per window.
    dispatched_bytes: SeriesId,
    /// Per-disk power-state transitions, indexed by slot.
    disk_transitions: Vec<SeriesId>,
    /// Per-span-phase critical-path microseconds (populated only when
    /// span recording is also on), indexed by `Phase::index()`.
    phase_us: [SeriesId; NUM_PHASES],
    /// Windowed top-k tail-exemplar recorder (DESIGN.md §14), present
    /// when `SimConfig::exemplars_per_window > 0`. Like the phase
    /// series it only observes anything when span recording is also
    /// on, and it rides the telemetry window clock.
    exemplars: Option<ExemplarRecorder>,
}

impl Hub {
    fn new(cfg: &SimConfig) -> Self {
        let mut hub = Telemetry::new(TELEMETRY_WINDOW, TELEMETRY_RETAIN);
        let response_us = hub.quantile("sim.response_us");
        let power_w = hub.gauge("sim.power_w");
        let completions = hub.counter("sim.user_completions");
        let dispatched_bytes = hub.counter("io.dispatched_bytes");
        let disk_transitions = (0..cfg.disk_count())
            .map(|d| hub.counter(&format!("disk.{d:02}.state_transitions")))
            .collect();
        let phase_us =
            Phase::ALL.map(|p| hub.counter(&format!("phase.{}.critical_path_us", p.name())));
        let exemplars = (cfg.exemplars_per_window > 0).then(|| {
            ExemplarRecorder::new(cfg.exemplars_per_window, TELEMETRY_WINDOW, TELEMETRY_RETAIN)
        });
        Hub {
            hub,
            monitor: SloMonitor::new(SLO_BURN, cfg.slos.clone()),
            response_us,
            power_w,
            completions,
            dispatched_bytes,
            disk_transitions,
            phase_us,
            exemplars,
        }
    }
}

/// Owner of every observation stream of one run (see the module doc).
#[derive(Debug)]
pub(crate) struct Observer {
    /// Trace sink every instrumented layer emits into ([`NullSink`]
    /// for an untraced run).
    sink: Box<dyn TraceSink>,
    /// Cached `sink.enabled()`: the only cost tracing adds to an
    /// untraced hot path is this one branch per emit point.
    trace_on: bool,
    /// Per-request span collector, present only when span recording is
    /// on.
    spans: Option<SpanCollector>,
    /// Open background span ids, keyed by kind and the scheme's unit:
    /// `Some(pair)` for per-pair destage and compaction, `None` for
    /// whole-log cycles, `Some(slot)` for a rebuild and `Some(disk)`
    /// for a scrub chunk.
    open_bg: HashMap<(BgSpanKind, Option<usize>), u64>,
    /// Online telemetry hub, present only when
    /// `SimConfig::telemetry_enabled`.
    telemetry: Option<Hub>,
    /// Every SLO alert raised this run, in emission order.
    alerts: Vec<SloAlert>,
    /// Run root-cause attribution in [`Observer::finish`].
    rca: bool,
}

impl Observer {
    /// Builds the observer for `cfg`, tracing into `sink`. Span
    /// recording is on when `spans` is set or `cfg.rca_enabled`: RCA
    /// needs finished spans for exemplar critical paths and
    /// `delayed_by` causality, and span recording is observational, so
    /// forcing it on cannot change the report.
    pub(crate) fn new(cfg: &SimConfig, sink: Box<dyn TraceSink>, spans: bool) -> Self {
        Observer {
            trace_on: sink.enabled(),
            sink,
            spans: (spans || cfg.rca_enabled).then(SpanCollector::new),
            open_bg: HashMap::new(),
            telemetry: cfg.telemetry_enabled.then(|| Hub::new(cfg)),
            alerts: Vec::new(),
            rca: cfg.rca_enabled,
        }
    }

    /// True when span recording is on: disks must stamp service
    /// breakdowns, the hot spares that replace them included.
    #[inline]
    pub(crate) fn spans_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a trace event at `now`. The event is built lazily: with
    /// the default [`NullSink`] this costs exactly one predicted branch
    /// and the closure never runs.
    #[inline]
    pub(crate) fn emit(&mut self, now: SimTime, event: impl FnOnce() -> SimEvent) {
        if self.trace_on {
            self.sink.record(now, event());
        }
    }

    /// Sub-request `req` was handed to `disk`.
    #[inline]
    pub(crate) fn dispatch(&mut self, now: SimTime, disk: DiskId, req: &DiskRequest) {
        if let Some(tel) = &mut self.telemetry {
            tel.hub.add(tel.dispatched_bytes, req.bytes as f64);
        }
        self.emit(now, || SimEvent::RequestDispatch {
            io: req.id,
            disk,
            kind: req.kind,
            offset: req.offset,
            bytes: req.bytes,
            background: req.priority == Priority::Background,
        });
    }

    /// An I/O on `disk` completed: files the disk's service breakdown
    /// as a leg of the request the I/O was tagged with.
    #[inline]
    pub(crate) fn leg(&mut self, disk: DiskId, d: &mut Disk) {
        if let Some(s) = &mut self.spans {
            if let Some(b) = d.take_breakdown() {
                s.record_leg(b.id, disk, &b);
            }
        }
    }

    /// `disk` moved from power state `from` to `to`.
    #[inline]
    pub(crate) fn disk_state(
        &mut self,
        now: SimTime,
        disk: DiskId,
        from: PowerState,
        to: PowerState,
    ) {
        if let Some(tel) = &mut self.telemetry {
            tel.hub.add(tel.disk_transitions[disk], 1.0);
        }
        self.emit(now, || SimEvent::DiskState { disk, from, to });
    }

    /// User request `id` was admitted at `arrival`.
    #[inline]
    pub(crate) fn open_request(&mut self, id: u64, kind: ReqKind, arrival: SimTime) {
        if let Some(s) = &mut self.spans {
            s.open_request(id, kind, arrival);
        }
    }

    /// User request `id` completed at `now` after `response`. Closes
    /// its span, offers it to the exemplar recorder (stamping the power
    /// states in `power` of the disks it touched), rolls the response
    /// and its critical path into telemetry, and emits the completion.
    #[inline]
    pub(crate) fn complete_request(
        &mut self,
        now: SimTime,
        id: u64,
        kind: ReqKind,
        response: Duration,
        power: &[PowerState],
    ) {
        let mut phase_us: Option<[u64; NUM_PHASES]> = None;
        if let Some(s) = &mut self.spans {
            if let Some(span) = s.close_request(id, now) {
                if let Some(tel) = &mut self.telemetry {
                    let path = critical_path(span);
                    if let Some(rec) = &mut tel.exemplars {
                        rec.observe(now, span, &path, power);
                    }
                    phase_us = Some(path.phase_us);
                }
            }
        }
        if let Some(tel) = &mut self.telemetry {
            tel.hub.add(tel.completions, 1.0);
            tel.hub
                .observe(tel.response_us, response.as_micros() as f64);
            if let Some(phase_us) = phase_us {
                for (i, &us) in phase_us.iter().enumerate() {
                    if us > 0 {
                        tel.hub.add(tel.phase_us[i], us as f64);
                    }
                }
            }
        }
        self.emit(now, || SimEvent::RequestComplete {
            id,
            kind,
            response_us: response.as_micros(),
        });
    }

    /// Declares that sub-request `io` serves user request `user` and
    /// what its transfer is for. No-op unless span recording is on.
    #[inline]
    pub(crate) fn tag_io(&mut self, io: u64, user: u64, flavor: LegFlavor) {
        if let Some(s) = &mut self.spans {
            s.tag_io(io, user, flavor);
        }
    }

    /// Drops the span tag of an aborted sub-request (its completion
    /// will never be observed).
    #[inline]
    pub(crate) fn untag_io(&mut self, io: u64) {
        if let Some(s) = &mut self.spans {
            s.untag_io(io);
        }
    }

    /// Opens a background span of `kind` covering `disks` at `now`,
    /// keyed by `key` for the matching [`Observer::end`].
    pub(crate) fn begin(
        &mut self,
        now: SimTime,
        kind: BgSpanKind,
        key: Option<usize>,
        disks: &[DiskId],
    ) {
        if let Some(s) = &mut self.spans {
            let id = s.begin_bg(kind, disks, now);
            self.open_bg.insert((kind, key), id);
        }
    }

    /// Closes the background span of `kind` keyed by `key` at `now`, if
    /// one is open.
    pub(crate) fn end(&mut self, now: SimTime, kind: BgSpanKind, key: Option<usize>) {
        if let Some(s) = &mut self.spans {
            if let Some(id) = self.open_bg.remove(&(kind, key)) {
                s.end_bg(id, now);
            }
        }
    }

    /// Samples the array power draw `watts` into the telemetry hub,
    /// closes every elapsed window, and feeds each closed window to the
    /// SLO monitor, emitting the resulting alerts as trace events.
    /// Called at the driver's power-sampling cadence — telemetry
    /// piggybacks on this existing hook instead of scheduling events
    /// of its own, so it cannot perturb the event order.
    pub(crate) fn sample(&mut self, now: SimTime, watts: f64) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        tel.hub.set(tel.power_w, watts);
        if let Some(rec) = &mut tel.exemplars {
            // Keep the exemplar ring on the same window clock as the
            // telemetry hub: seal elapsed windows together.
            rec.advance(now);
        }
        let first = self.alerts.len();
        for w in tel.hub.advance(now) {
            let Some(latency) = tel.hub.rollup(tel.response_us, w.window) else {
                continue; // evicted by a coarse multi-window close
            };
            let RollupValue::Quantile(latency) = latency.value.clone() else {
                unreachable!("response series is a quantile series");
            };
            let mean_watts = match tel.hub.rollup(tel.power_w, w.window).map(|r| &r.value) {
                Some(RollupValue::Gauge { mean, .. }) => *mean,
                _ => 0.0,
            };
            self.alerts
                .extend(tel.monitor.observe_window(WindowObservation {
                    window: w.window,
                    latency: &latency,
                    mean_watts,
                }));
        }
        if self.trace_on {
            for a in &self.alerts[first..] {
                self.sink.record(now, alert_event(a));
            }
        }
    }

    /// Detaches every stream, leaving the observer spent (a
    /// [`NullSink`], nothing recording): the trace sink, the finished
    /// spans, the telemetry snapshot, the exemplars (sealing the open
    /// window), the alerts, and — when RCA is on — the root-cause
    /// attribution of every alert window.
    pub(crate) fn finish(&mut self) -> RunObservations {
        self.trace_on = false;
        let sink = std::mem::replace(&mut self.sink, Box::new(NullSink));
        let spans = self.spans.take().map(|c| {
            let (requests, background) = c.into_finished();
            SpanSet {
                requests,
                background,
            }
        });
        let (telemetry, exemplars) = match self.telemetry.take() {
            Some(t) => (
                Some(t.hub.snapshot()),
                t.exemplars.map(ExemplarRecorder::finish),
            ),
            None => (None, None),
        };
        let slo_alerts = std::mem::take(&mut self.alerts);
        let rca = self.rca.then(|| {
            let bg = spans.as_ref().map_or(&[][..], |s| s.background.as_slice());
            let exm = exemplars
                .as_ref()
                .expect("rca_enabled implies exemplar capture (SimConfig::check)");
            rca::analyze(&slo_alerts, exm, bg)
        });
        RunObservations {
            sink,
            spans,
            telemetry,
            slo_alerts,
            exemplars,
            rca,
        }
    }
}

/// The trace event announcing an SLO alert.
fn alert_event(a: &SloAlert) -> SimEvent {
    match a.signal {
        SloSignal::Warning => SimEvent::SloBurnWarning {
            slo: a.slo.clone(),
            window: a.window,
            burn_short_x100: (a.burn_short * 100.0).round() as u64,
            burn_long_x100: (a.burn_long * 100.0).round() as u64,
        },
        SloSignal::Breach => SimEvent::SloBreach {
            slo: a.slo.clone(),
            window: a.window,
            observed_x1000: (a.observed * 1000.0).round() as u64,
            target_x1000: (a.target * 1000.0).round() as u64,
        },
    }
}
