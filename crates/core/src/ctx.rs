//! Shared simulation context handed to controller policies.
//!
//! [`SimCtx`] owns the disks, user-request bookkeeping and metric sinks.
//! Policies call [`SimCtx::submit`]/[`SimCtx::spin_down`]/… and the driver
//! drains the accumulated disk wakes and timers into its event queue after
//! every callback, so policies never touch the queue directly.

use crate::config::{SimConfig, SLO_BURN, TELEMETRY_RETAIN, TELEMETRY_WINDOW};
use crate::faults::{surviving_partner, FaultMetrics, FaultPlan};
use crate::recovery::RecoveryPlan;
use crate::slot::{IoSlab, IoSlot};
use rolo_disk::{Disk, DiskId, DiskParams, DiskRequest, DiskWake, IoKind, IoOutcome, Priority};
use rolo_disk::{DiskEnergyReport, IntegrityMap, PowerState, SchedulerKind};
use rolo_metrics::{IntervalTracker, ResponseStats, Timeline};
use rolo_obs::{critical_path, BgSpanKind, LegFlavor, SpanCollector, SpanSet, NUM_PHASES};
use rolo_obs::{ExemplarRecorder, ExemplarSet};
use rolo_obs::{NullSink, SimEvent, TraceSink};
use rolo_obs::{
    Phase, RollupValue, SeriesId, SloAlert, SloMonitor, SloSignal, Telemetry, TelemetrySnapshot,
    WindowObservation,
};
use rolo_raid::ArrayGeometry;
use rolo_sim::{Duration, IoMap, SimRng, SimTime};
use rolo_trace::ReqKind;
use std::collections::HashMap;

/// Bytes per rebuild chunk (matches the offline engine in
/// [`crate::rebuild`]).
const REBUILD_CHUNK: u64 = 1 << 20;

/// Rebuild read/write chains kept in flight per degraded slot. Depth
/// beyond the disk's own queue buys nothing: rebuild I/O is background
/// priority and dispatches only in idle slots.
const REBUILD_WINDOW: usize = 4;

/// Byte alignment of injected latent extents and scrub chunks.
const LSE_ALIGN: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RebuildPhase {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScrubPhase {
    /// A verification read of the next chunk of the data region.
    Verify,
    /// The rewrite of a chunk whose latent extents were repaired from
    /// the surviving mirror copy.
    Repair,
}

/// Per-disk progress of the background integrity scrub.
#[derive(Debug, Clone, Default)]
struct ScrubDiskState {
    /// Next byte of the data region to verify.
    cursor: u64,
    /// Pass number (0-based; bumped when the cursor wraps).
    pass: u64,
    /// Bytes verified in the current pass.
    pass_bytes: u64,
    /// True once `ScrubStart` was emitted for the current pass.
    started: bool,
    /// True while a scrub chunk (verify or repair) is in flight.
    inflight: bool,
    /// Completion instant of the most recent full pass — the disk's
    /// provable scrub age.
    last_pass_at: Option<SimTime>,
}

/// One delayed per-disk effect of a correlated enclosure shock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShockEffect {
    /// The disk fails outright (routed through the whole-disk failure
    /// path, double-fault suppression included).
    Fail(DiskId),
    /// The disk accrues a latent corrupt extent at the given offset.
    Corrupt(DiskId, u64),
}

/// Live state of one in-run rebuild onto a replacement disk.
#[derive(Debug)]
struct RebuildState {
    sources: Vec<DiskId>,
    next_source: usize,
    total: u64,
    issued: u64,
    written: u64,
    started: SimTime,
    inflight: IoMap<(RebuildPhase, u64, u64)>,
}

/// Outcome of the final sub-request of a user request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedUser {
    /// Read or write.
    pub kind: ReqKind,
    /// Measured response time.
    pub response: Duration,
}

#[derive(Debug)]
struct Outstanding {
    /// The externally-visible user request id: it appears in trace
    /// events and spans, so it is stored here (stable) rather than
    /// derived from the slab slot (recycled).
    user_id: u64,
    kind: ReqKind,
    arrival: SimTime,
    subs_left: u32,
}

/// Shared context: disks, request tracking, metric sinks.
#[derive(Debug)]
pub struct SimCtx {
    /// Current simulated time (set by the driver before each callback).
    pub now: SimTime,
    geometry: ArrayGeometry,
    disks: Vec<Disk>,
    pending_wakes: Vec<(DiskId, DiskWake)>,
    pending_timers: Vec<(SimTime, u64)>,
    /// In-flight user requests, slab-allocated: completion is one
    /// indexed access via the controller-held [`IoSlot`], not a hash
    /// probe per sub-request.
    outstanding: IoSlab<Outstanding>,
    next_io_id: u64,
    /// SoA mirror of each disk's power state, updated at the two points
    /// a disk's state can change ([`SimCtx::note_disk_state`] and
    /// [`SimCtx::fail_disk`]). Keeps the power-sampling hot path off the
    /// pointer-chasing `Disk` structs.
    power_soa: Vec<PowerState>,
    /// SoA instantaneous draw (W) per disk, cached alongside
    /// `power_soa` — power is a pure function of the state, so the two
    /// are maintained together and `total_power_w` is a contiguous sum.
    watts_soa: Vec<f64>,
    /// Response-time statistics over all user requests.
    pub responses: ResponseStats,
    /// Response-time statistics over reads only.
    pub read_responses: ResponseStats,
    /// Response-time statistics over writes only.
    pub write_responses: ResponseStats,
    /// Logging/destaging phase tracker.
    pub intervals: IntervalTracker,
    /// Occupied logging capacity over time (bytes).
    pub log_timeline: Timeline,
    /// Sampled aggregate power draw over time (watts).
    pub power_timeline: Timeline,
    /// Response-time statistics over user requests completed while the
    /// array was degraded (at least one slot awaiting rebuild).
    pub degraded_responses: ResponseStats,
    /// Fault-injection counters (see [`FaultMetrics`]).
    pub faults: FaultMetrics,
    fault_plan: FaultPlan,
    fault_rng: SimRng,
    spare_rng: SimRng,
    disk_params: DiskParams,
    scheduler: SchedulerKind,
    bg_idle_guard: Duration,
    /// Per-slot replacement generation; bumped when a spare is installed
    /// so stale wakes of the dead disk can be dropped.
    epochs: Vec<u32>,
    /// Slots whose current disk is a replacement still awaiting rebuild,
    /// with the failure instant.
    degraded: HashMap<DiskId, SimTime>,
    degraded_since: Option<SimTime>,
    first_failure_at: Option<SimTime>,
    retries: IoMap<u32>,
    rebuilds: HashMap<DiskId, RebuildState>,
    rebuild_ios: IoMap<DiskId>,
    finished_rebuilds: Vec<DiskId>,
    /// Energy history of dead disks, merged into the slot's live report
    /// so array totals conserve energy across replacements.
    retired: HashMap<DiskId, DiskEnergyReport>,
    /// Trace sink every instrumented layer emits into ([`NullSink`] by
    /// default).
    tracer: Box<dyn TraceSink>,
    /// Cached `tracer.enabled()`: the only cost tracing adds to an
    /// untraced hot path is this one branch per emit point.
    trace_on: bool,
    /// Per-request span collector, present only when span recording was
    /// enabled ([`SimCtx::enable_spans`]). The simulation never reads
    /// it, so recording cannot perturb outcomes.
    spans: Option<SpanCollector>,
    /// Open destage [`BgSpan`](rolo_obs::BgSpan) ids, keyed by the
    /// scheme's destage unit (`Some(pair)` for per-pair destage, `None`
    /// for whole-log cycles).
    destage_spans: HashMap<Option<usize>, u64>,
    /// Open rebuild span ids, keyed by the slot being rebuilt.
    rebuild_spans: HashMap<DiskId, u64>,
    /// Open compaction span ids, keyed by the pair being compacted
    /// (`None` for whole-log compactors).
    compaction_spans: HashMap<Option<usize>, u64>,
    /// Per-disk latent corrupt extents (silent until a read, scrub chunk
    /// or overwrite touches them).
    corrupt: Vec<IntegrityMap>,
    /// RNG stream for LSE thinning accepts and extent placement
    /// (untouched unless the plan injects LSE, so a corruption-free run
    /// draws exactly the same fault stream as before).
    lse_rng: SimRng,
    /// RNG stream for enclosure-shock expansion.
    shock_rng: SimRng,
    /// True when the background integrity scrub runs.
    scrub_enabled: bool,
    /// Bytes per scrub chunk read.
    scrub_chunk: u64,
    /// Per-disk scrub progress.
    scrub_state: Vec<ScrubDiskState>,
    /// In-flight scrub sub-requests: io id → (disk, phase, offset, bytes).
    scrub_ios: IoMap<(DiskId, ScrubPhase, u64, u64)>,
    /// Open scrub span ids, keyed by the disk being scrubbed.
    scrub_spans: HashMap<DiskId, u64>,
    /// Online telemetry hub + SLO monitor, present only when
    /// `SimConfig::telemetry_enabled`. The simulation never reads it and
    /// it schedules no events of its own (windows advance on the
    /// existing power-sampling hook), so enabling or disabling it
    /// cannot perturb outcomes.
    telemetry: Option<CtxTelemetry>,
    /// Every SLO alert raised this run, in emission order; drained by
    /// the driver alongside the telemetry snapshot.
    slo_alerts: Vec<SloAlert>,
}

/// The context's half of the telemetry pipeline: the windowed rollup
/// hub, pre-registered series ids for every emit point, and the SLO
/// monitor fed by each closed window.
#[derive(Debug)]
struct CtxTelemetry {
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

impl SimCtx {
    /// Builds the context: one disk per [`SimConfig::disk_count`], each
    /// with a forked deterministic RNG stream. `standby` selects the
    /// disks that begin spun down. Tracing is off ([`NullSink`]).
    pub fn new(cfg: &SimConfig, geometry: ArrayGeometry, standby: &[bool]) -> Self {
        Self::with_sink(cfg, geometry, standby, Box::new(NullSink))
    }

    /// Like [`SimCtx::new`], but with a caller-supplied trace sink.
    pub fn with_sink(
        cfg: &SimConfig,
        geometry: ArrayGeometry,
        standby: &[bool],
        sink: Box<dyn TraceSink>,
    ) -> Self {
        assert_eq!(standby.len(), cfg.disk_count(), "standby mask length");
        let rng = SimRng::seed_from(cfg.seed);
        let disks = (0..cfg.disk_count())
            .map(|id| {
                let state = if standby[id] {
                    PowerState::Standby
                } else {
                    PowerState::Idle
                };
                let mut disk = Disk::with_initial_state(
                    id,
                    cfg.disk.clone(),
                    rng.fork(&format!("disk-{id}")),
                    state,
                );
                disk.set_bg_idle_guard(cfg.bg_idle_guard);
                disk.set_scheduler(cfg.scheduler);
                disk
            })
            .collect();
        let disk_count = cfg.disk_count();
        let telemetry = cfg.telemetry_enabled.then(|| {
            let mut hub = Telemetry::new(TELEMETRY_WINDOW, TELEMETRY_RETAIN);
            let response_us = hub.quantile("sim.response_us");
            let power_w = hub.gauge("sim.power_w");
            let completions = hub.counter("sim.user_completions");
            let dispatched_bytes = hub.counter("io.dispatched_bytes");
            let disk_transitions = (0..disk_count)
                .map(|d| hub.counter(&format!("disk.{d:02}.state_transitions")))
                .collect();
            let phase_us =
                Phase::ALL.map(|p| hub.counter(&format!("phase.{}.critical_path_us", p.name())));
            let exemplars = (cfg.exemplars_per_window > 0).then(|| {
                ExemplarRecorder::new(cfg.exemplars_per_window, TELEMETRY_WINDOW, TELEMETRY_RETAIN)
            });
            CtxTelemetry {
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
        });
        let trace_on = sink.enabled();
        let disks: Vec<Disk> = disks;
        let power_soa: Vec<PowerState> = disks.iter().map(|d| d.power_state()).collect();
        let watts_soa: Vec<f64> = disks.iter().map(|d| d.current_power_w()).collect();
        SimCtx {
            now: SimTime::ZERO,
            geometry,
            disks,
            pending_wakes: Vec::new(),
            pending_timers: Vec::new(),
            outstanding: IoSlab::with_capacity(256),
            next_io_id: 1,
            power_soa,
            watts_soa,
            responses: ResponseStats::new(),
            read_responses: ResponseStats::new(),
            write_responses: ResponseStats::new(),
            intervals: IntervalTracker::new(),
            log_timeline: Timeline::new(Duration::from_secs(60)),
            power_timeline: Timeline::new(Duration::from_secs(30)),
            degraded_responses: ResponseStats::new(),
            faults: FaultMetrics::default(),
            fault_plan: cfg.faults.clone(),
            fault_rng: SimRng::seed_from(cfg.faults.seed).fork("fault-draws"),
            spare_rng: SimRng::seed_from(cfg.seed).fork("spares"),
            disk_params: cfg.disk.clone(),
            scheduler: cfg.scheduler,
            bg_idle_guard: cfg.bg_idle_guard,
            epochs: vec![0; disk_count],
            degraded: HashMap::new(),
            degraded_since: None,
            first_failure_at: None,
            retries: IoMap::default(),
            rebuilds: HashMap::new(),
            rebuild_ios: IoMap::default(),
            finished_rebuilds: Vec::new(),
            retired: HashMap::new(),
            tracer: sink,
            trace_on,
            spans: None,
            destage_spans: HashMap::new(),
            rebuild_spans: HashMap::new(),
            compaction_spans: HashMap::new(),
            corrupt: vec![IntegrityMap::new(); disk_count],
            lse_rng: SimRng::seed_from(cfg.faults.seed).fork("lse-draws"),
            shock_rng: SimRng::seed_from(cfg.faults.seed).fork("shock-draws"),
            scrub_enabled: cfg.scrub_enabled,
            scrub_chunk: cfg.scrub_chunk,
            scrub_state: vec![ScrubDiskState::default(); disk_count],
            scrub_ios: IoMap::default(),
            scrub_spans: HashMap::new(),
            telemetry,
            slo_alerts: Vec::new(),
        }
    }

    /// Switches per-request span recording on: every disk starts
    /// stamping [`rolo_disk::ServiceBreakdown`]s and the context opens a
    /// [`SpanCollector`] that follows each user request from admission
    /// ([`SimCtx::register_user`]) to completion
    /// ([`SimCtx::user_sub_done`]). Off by default; recording never
    /// feeds back into the simulation, so a spanned run produces the
    /// same [`crate::report::SimReport`] as an unspanned one.
    pub fn enable_spans(&mut self) {
        for d in &mut self.disks {
            d.set_record_breakdown(true);
        }
        self.spans = Some(SpanCollector::new());
    }

    /// True when span recording is on.
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Driver hook: detaches the finished span data, if recording was
    /// on.
    pub fn take_spans(&mut self) -> Option<SpanSet> {
        self.spans.take().map(|c| {
            let (requests, background) = c.into_finished();
            SpanSet {
                requests,
                background,
            }
        })
    }

    /// Declares that sub-request `io` serves user request `user` and
    /// what its transfer is for. Controllers call this right after each
    /// foreground [`SimCtx::submit`]; background I/O stays untagged.
    /// No-op unless span recording is on.
    #[inline]
    pub fn tag_io(&mut self, io: u64, user: u64, flavor: LegFlavor) {
        if let Some(s) = &mut self.spans {
            s.tag_io(io, user, flavor);
        }
    }

    /// Drops the span tag of an aborted sub-request (its completion
    /// will never be observed). No-op unless span recording is on.
    #[inline]
    pub fn untag_io(&mut self, io: u64) {
        if let Some(s) = &mut self.spans {
            s.untag_io(io);
        }
    }

    /// Opens a destage background span covering `disks`. `pair` is the
    /// scheme's destage unit — `Some(pair)` for per-pair destage (RoLo),
    /// `None` for whole-log cycles (GRAID, RoLo-E) — and keys the
    /// matching [`SimCtx::span_destage_end`].
    pub fn span_destage_begin(&mut self, pair: Option<usize>, disks: &[DiskId]) {
        if let Some(s) = &mut self.spans {
            let id = s.begin_bg(BgSpanKind::Destage, disks, self.now);
            self.destage_spans.insert(pair, id);
        }
    }

    /// Closes the destage background span keyed by `pair`, if open.
    pub fn span_destage_end(&mut self, pair: Option<usize>) {
        if let Some(id) = self.destage_spans.remove(&pair) {
            if let Some(s) = &mut self.spans {
                s.end_bg(id, self.now);
            }
        }
    }

    /// Opens a compaction background span covering `disks`: foreground
    /// legs delayed behind the relocation transfers on those disks are
    /// charged to the `Compaction` phase instead of
    /// `DestageInterference`, keeping attribution conserved while
    /// separating the two background causes.
    pub fn span_compaction_begin(&mut self, pair: Option<usize>, disks: &[DiskId]) {
        if let Some(s) = &mut self.spans {
            let id = s.begin_bg(BgSpanKind::Compaction, disks, self.now);
            self.compaction_spans.insert(pair, id);
        }
    }

    /// Closes the compaction background span keyed by `pair`, if open.
    pub fn span_compaction_end(&mut self, pair: Option<usize>) {
        if let Some(id) = self.compaction_spans.remove(&pair) {
            if let Some(s) = &mut self.spans {
                s.end_bg(id, self.now);
            }
        }
    }

    fn span_rebuild_begin(&mut self, slot: DiskId, disks: &[DiskId]) {
        if let Some(s) = &mut self.spans {
            let id = s.begin_bg(BgSpanKind::Rebuild, disks, self.now);
            self.rebuild_spans.insert(slot, id);
        }
    }

    fn span_rebuild_end(&mut self, slot: DiskId) {
        if let Some(id) = self.rebuild_spans.remove(&slot) {
            if let Some(s) = &mut self.spans {
                s.end_bg(id, self.now);
            }
        }
    }

    fn span_scrub_begin(&mut self, disk: DiskId) {
        if let Some(s) = &mut self.spans {
            let id = s.begin_bg(BgSpanKind::Scrub, &[disk], self.now);
            self.scrub_spans.insert(disk, id);
        }
    }

    fn span_scrub_end(&mut self, disk: DiskId) {
        if let Some(id) = self.scrub_spans.remove(&disk) {
            if let Some(s) = &mut self.spans {
                s.end_bg(id, self.now);
            }
        }
    }

    /// True when a recording trace sink is attached.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    /// Records a trace event at the current simulated time.
    ///
    /// The event is built lazily: with the default [`NullSink`] this
    /// costs exactly one predicted branch and the closure never runs.
    #[inline]
    pub fn emit(&mut self, event: impl FnOnce() -> SimEvent) {
        if self.trace_on {
            self.tracer.record(self.now, event());
        }
    }

    /// Driver hook: detaches the trace sink, replacing it with a
    /// [`NullSink`] (subsequent emits become no-ops).
    pub fn take_sink(&mut self) -> Box<dyn TraceSink> {
        self.trace_on = false;
        std::mem::replace(&mut self.tracer, Box::new(NullSink))
    }

    /// Driver hook: samples the array power draw into the telemetry
    /// hub, closes every elapsed window, and feeds each closed window
    /// to the SLO monitor, emitting the resulting alerts as trace
    /// events. Called at the driver's power-sampling cadence —
    /// telemetry piggybacks on this existing hook instead of scheduling
    /// events of its own, so it cannot perturb the event order.
    pub fn sample_metrics(&mut self) {
        let power = self.total_power_w();
        let now = self.now;
        let mut alerts = Vec::new();
        if let Some(tel) = &mut self.telemetry {
            tel.hub.set(tel.power_w, power);
            if let Some(rec) = &mut tel.exemplars {
                // Keep the exemplar ring on the same window clock as
                // the telemetry hub: seal elapsed windows together.
                rec.advance(now);
            }
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
                alerts.extend(tel.monitor.observe_window(WindowObservation {
                    window: w.window,
                    latency: &latency,
                    mean_watts,
                }));
            }
        }
        for a in &alerts {
            self.emit(|| match a.signal {
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
            });
        }
        self.slo_alerts.extend(alerts);
    }

    /// True when the telemetry hub is on.
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Driver hook: exports the telemetry hub's retained windows, if
    /// telemetry was on.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySnapshot> {
        self.telemetry.take().map(|t| t.hub.snapshot())
    }

    /// Driver hook: drains the SLO alerts raised so far, in emission
    /// order.
    pub fn take_slo_alerts(&mut self) -> Vec<SloAlert> {
        std::mem::take(&mut self.slo_alerts)
    }

    /// Driver hook: detaches the captured tail exemplars, sealing the
    /// open window. `None` when capture was off
    /// (`exemplars_per_window == 0` or telemetry disabled). Must be
    /// called before [`SimCtx::take_telemetry`], which consumes the
    /// whole telemetry state.
    pub fn take_exemplars(&mut self) -> Option<ExemplarSet> {
        self.telemetry
            .as_mut()
            .and_then(|t| t.exemplars.take())
            .map(ExemplarRecorder::finish)
    }

    /// Bumps the transition counter and emits [`SimEvent::DiskState`]
    /// when `disk` has left the power state captured in `before`. Also
    /// the maintenance point of the SoA power cache: every context
    /// method that can change a disk's state funnels through here.
    fn note_disk_state(&mut self, disk: DiskId, before: PowerState) {
        let after = self.disks[disk].power_state();
        if after != before {
            self.power_soa[disk] = after;
            self.watts_soa[disk] = self.disks[disk].current_power_w();
            if let Some(tel) = &mut self.telemetry {
                tel.hub.add(tel.disk_transitions[disk], 1.0);
            }
            self.emit(|| SimEvent::DiskState {
                disk,
                from: before,
                to: after,
            });
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> &ArrayGeometry {
        &self.geometry
    }

    /// Immutable view of a disk.
    pub fn disk(&self, id: DiskId) -> &Disk {
        &self.disks[id]
    }

    /// All disks.
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// Number of disks.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Allocates a fresh sub-request id for policy bookkeeping.
    pub fn alloc_io_id(&mut self) -> u64 {
        let id = self.next_io_id;
        self.next_io_id += 1;
        id
    }

    /// Submits a sub-request to `disk`, returning its id.
    pub fn submit(
        &mut self,
        disk: DiskId,
        kind: IoKind,
        offset: u64,
        bytes: u64,
        priority: Priority,
    ) -> u64 {
        let id = self.alloc_io_id();
        self.submit_with_id(disk, id, kind, offset, bytes, priority);
        id
    }

    /// Submits a sub-request with a caller-chosen id.
    pub fn submit_with_id(
        &mut self,
        disk: DiskId,
        id: u64,
        kind: IoKind,
        offset: u64,
        bytes: u64,
        priority: Priority,
    ) {
        let req = DiskRequest::new(id, kind, offset, bytes, priority);
        let now = self.now;
        let before = self.disks[disk].power_state();
        if let Some(w) = self.disks[disk].submit(req, now) {
            self.pending_wakes.push((disk, w));
        }
        if let Some(tel) = &mut self.telemetry {
            tel.hub.add(tel.dispatched_bytes, bytes as f64);
        }
        self.note_disk_state(disk, before);
        self.emit(|| SimEvent::RequestDispatch {
            io: id,
            disk,
            kind,
            offset,
            bytes,
            background: priority == Priority::Background,
        });
    }

    /// Asks `disk` to spin down as soon as it drains (park semantics:
    /// immediate if idle, deferred to the last completion otherwise; any
    /// new submission cancels it).
    pub fn spin_down(&mut self, disk: DiskId) {
        let now = self.now;
        let before = self.disks[disk].power_state();
        if let Some(w) = self.disks[disk].park_when_idle(now) {
            self.pending_wakes.push((disk, w));
        }
        self.note_disk_state(disk, before);
    }

    /// Spins `disk` up if it is in standby.
    pub fn spin_up(&mut self, disk: DiskId) {
        let now = self.now;
        let before = self.disks[disk].power_state();
        if let Some(w) = self.disks[disk].spin_up(now) {
            self.pending_wakes.push((disk, w));
        }
        self.note_disk_state(disk, before);
    }

    /// Schedules a policy timer `delay` from now carrying `token`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.pending_timers.push((self.now + delay, token));
    }

    /// Driver hook: drains wakes accumulated since the last call.
    ///
    /// Allocates a fresh `Vec` per call; the driver's hot loop uses
    /// [`SimCtx::drain_wakes_into`] instead and this stays for tests and
    /// offline tooling.
    pub fn take_wakes(&mut self) -> Vec<(DiskId, DiskWake)> {
        std::mem::take(&mut self.pending_wakes)
    }

    /// Driver hook: drains pending timers.
    ///
    /// Allocates a fresh `Vec` per call; the driver's hot loop uses
    /// [`SimCtx::drain_timers_into`] instead and this stays for tests
    /// and offline tooling.
    pub fn take_timers(&mut self) -> Vec<(SimTime, u64)> {
        std::mem::take(&mut self.pending_timers)
    }

    /// True when at least one wake or timer is pending — lets the driver
    /// skip its drain machinery entirely on the (common) quiet steps.
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.pending_wakes.is_empty() || !self.pending_timers.is_empty()
    }

    /// Allocation-free variant of [`SimCtx::take_wakes`]: swaps the
    /// pending wakes into `out` (which must be empty), leaving the
    /// context holding `out`'s spare capacity. Driving the drain loop
    /// with one reused scratch vector means zero per-step allocations
    /// once the vectors warm up; the order of drained entries is
    /// identical to `take_wakes`.
    #[inline]
    pub fn drain_wakes_into(&mut self, out: &mut Vec<(DiskId, DiskWake)>) {
        debug_assert!(out.is_empty(), "drain scratch must be drained first");
        std::mem::swap(&mut self.pending_wakes, out);
    }

    /// Allocation-free variant of [`SimCtx::take_timers`]; see
    /// [`SimCtx::drain_wakes_into`].
    #[inline]
    pub fn drain_timers_into(&mut self, out: &mut Vec<(SimTime, u64)>) {
        debug_assert!(out.is_empty(), "drain scratch must be drained first");
        std::mem::swap(&mut self.pending_timers, out);
    }

    /// Driver hook: delivers a disk wake back to the disk, pushing any
    /// follow-up wake. For I/O completions, returns the finished request.
    pub fn deliver_wake(&mut self, disk: DiskId, wake_kind: WakeKind) -> Option<DiskRequest> {
        let now = self.now;
        let before = self.disks[disk].power_state();
        let completed = match wake_kind {
            WakeKind::Io => {
                let out = self.disks[disk].on_io_complete(now);
                if let Some(w) = out.next {
                    self.pending_wakes.push((disk, w));
                }
                if self.spans.is_some() {
                    if let Some(b) = self.disks[disk].take_breakdown() {
                        if let Some(s) = &mut self.spans {
                            s.record_leg(b.id, disk, &b);
                        }
                    }
                }
                Some(out.completed)
            }
            WakeKind::SpinUp => {
                if let Some(w) = self.disks[disk].on_spin_up_complete(now) {
                    self.pending_wakes.push((disk, w));
                }
                None
            }
            WakeKind::SpinDown => {
                if let Some(w) = self.disks[disk].on_spin_down_complete(now) {
                    self.pending_wakes.push((disk, w));
                }
                None
            }
            WakeKind::BgRetry => {
                if let Some(w) = self.disks[disk].on_bg_retry(now) {
                    self.pending_wakes.push((disk, w));
                }
                None
            }
        };
        self.note_disk_state(disk, before);
        completed
    }

    /// Registers a user request with `subs` outstanding sub-requests,
    /// returning the slab slot the controller hands back to
    /// [`SimCtx::user_sub_done`] on every sub-completion. The `user_id`
    /// stays the externally-visible identity (traces, spans); the slot
    /// is a recycled internal handle.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is zero.
    pub fn register_user(
        &mut self,
        user_id: u64,
        kind: ReqKind,
        arrival: SimTime,
        subs: u32,
    ) -> IoSlot {
        assert!(subs > 0, "user request with zero sub-requests");
        let slot = self.outstanding.insert(Outstanding {
            user_id,
            kind,
            arrival,
            subs_left: subs,
        });
        if let Some(s) = &mut self.spans {
            s.open_request(user_id, kind, arrival);
        }
        slot
    }

    /// Adds more pending sub-requests to an in-flight user request.
    ///
    /// # Panics
    ///
    /// Panics if the slot is stale (request already completed).
    pub fn add_user_subs(&mut self, slot: IoSlot, subs: u32) {
        self.outstanding
            .get_mut(slot)
            .unwrap_or_else(|| panic!("unknown user request slot {slot:?}"))
            .subs_left += subs;
    }

    /// Marks one sub-request of the user request at `slot` complete.
    /// When the last one lands, records the response time and returns
    /// the completion.
    ///
    /// # Panics
    ///
    /// Panics if the slot is stale (request already completed).
    pub fn user_sub_done(&mut self, slot: IoSlot) -> Option<CompletedUser> {
        let o = self
            .outstanding
            .get_mut(slot)
            .unwrap_or_else(|| panic!("unknown user request slot {slot:?}"));
        o.subs_left -= 1;
        if o.subs_left > 0 {
            return None;
        }
        let o = self.outstanding.remove(slot).expect("present");
        let user_id = o.user_id;
        let mut phase_us: Option<[u64; NUM_PHASES]> = None;
        if let Some(s) = &mut self.spans {
            if let Some(span) = s.close_request(user_id, self.now) {
                if let Some(tel) = &mut self.telemetry {
                    let path = critical_path(span);
                    if let Some(rec) = &mut tel.exemplars {
                        // Tail-exemplar capture: offer the finished
                        // span to the bounded per-window top-k
                        // recorder, stamping the power states of the
                        // disks it touched (an observational read of
                        // the SoA cache).
                        rec.observe(self.now, span, &path, &self.power_soa);
                    }
                    phase_us = Some(path.phase_us);
                }
            }
        }
        let response = self.now.since(o.arrival);
        self.responses.record(response);
        match o.kind {
            ReqKind::Read => self.read_responses.record(response),
            ReqKind::Write => self.write_responses.record(response),
        }
        if !self.degraded.is_empty() {
            self.degraded_responses.record(response);
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
        self.emit(|| SimEvent::RequestComplete {
            id: user_id,
            kind: o.kind,
            response_us: response.as_micros(),
        });
        Some(CompletedUser {
            kind: o.kind,
            response,
        })
    }

    /// Number of user requests still in flight.
    pub fn outstanding_users(&self) -> usize {
        self.outstanding.len()
    }

    /// Energy reports for every slot as of `now`: the live disk's report
    /// merged with the history of any dead disks that occupied the slot.
    pub fn energy_by_disk(&self) -> Vec<DiskEnergyReport> {
        self.disks
            .iter()
            .map(|d| {
                let live = d.energy_report(self.now);
                match self.retired.get(&d.id()) {
                    Some(dead) => dead.merged(&live),
                    None => live,
                }
            })
            .collect()
    }

    /// Instantaneous aggregate power draw of the array (W): a contiguous
    /// sum over the SoA watts cache, not a walk over the disk structs.
    pub fn total_power_w(&self) -> f64 {
        let total: f64 = self.watts_soa.iter().sum();
        debug_assert_eq!(
            total,
            self.disks.iter().map(|d| d.current_power_w()).sum::<f64>(),
            "SoA power cache out of sync with disk states"
        );
        total
    }

    /// Cached power state of `disk` (same value as
    /// `self.disk(disk).power_state()`, without touching the disk
    /// struct).
    #[inline]
    pub fn power_state_of(&self, disk: DiskId) -> PowerState {
        self.power_soa[disk]
    }

    /// Total array energy (J) as of `now`, including dead disks' history.
    pub fn total_energy(&self) -> f64 {
        self.energy_by_disk().iter().map(|r| r.total_joules).sum()
    }

    /// Total spin cycles (spin-ups) across the array so far.
    pub fn spin_cycles(&self) -> u64 {
        self.energy_by_disk().iter().map(|r| r.spin_ups).sum()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// The fault plan this run was configured with.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Current replacement generation of `disk`'s slot.
    pub fn epoch(&self, disk: DiskId) -> u32 {
        self.epochs[disk]
    }

    /// True if a wake tagged with `epoch` still belongs to the disk
    /// occupying `disk`'s slot (false after a replacement).
    pub fn epoch_live(&self, disk: DiskId, epoch: u32) -> bool {
        self.epochs[disk] == epoch
    }

    /// True while `disk`'s slot holds a replacement awaiting rebuild.
    /// Reads must not target it: the data is not there yet.
    pub fn is_degraded(&self, disk: DiskId) -> bool {
        self.degraded.contains_key(&disk)
    }

    /// Number of slots currently degraded.
    pub fn degraded_count(&self) -> usize {
        self.degraded.len()
    }

    /// Kills the disk in slot `disk` and installs a hot spare.
    ///
    /// Returns the policy-owned requests that were queued or in flight on
    /// the dead disk (rebuild-owned requests are re-issued internally);
    /// the caller must complete each through the policy's error path so
    /// no user request is silently dropped. Returns `None` — injecting
    /// nothing — when the failure would be the pair's second (data loss
    /// is the reliability model's domain, not the replay's).
    pub fn fail_disk(&mut self, disk: DiskId) -> Option<Vec<DiskRequest>> {
        let partner = surviving_partner(&self.geometry, disk);
        if self.is_degraded(disk) || partner.is_some_and(|p| self.is_degraded(p)) {
            self.faults.double_faults_suppressed += 1;
            return None;
        }
        self.faults.disk_failures += 1;
        self.first_failure_at.get_or_insert(self.now);
        if self.degraded.is_empty() {
            self.degraded_since = Some(self.now);
        }

        // Retire the dead disk's energy history so array totals conserve.
        let history = self.disks[disk].energy_report(self.now);
        let merged = match self.retired.get(&disk) {
            Some(prev) => prev.merged(&history),
            None => history,
        };
        self.retired.insert(disk, merged);

        let aborted = self.disks[disk].fail_now(self.now);
        self.epochs[disk] += 1;
        let label = format!("spare-{disk}-{}", self.epochs[disk]);
        let mut spare = Disk::with_initial_state_at(
            disk,
            self.disk_params.clone(),
            self.spare_rng.fork(&label),
            PowerState::Idle,
            self.now,
        );
        spare.set_bg_idle_guard(self.bg_idle_guard);
        spare.set_scheduler(self.scheduler);
        // The spare must inherit span recording, or every leg it serves
        // vanishes from its request's critical path (unattributed gaps
        // in post-failure attribution).
        spare.set_record_breakdown(self.spans.is_some());
        self.disks[disk] = spare;
        self.power_soa[disk] = self.disks[disk].power_state();
        self.watts_soa[disk] = self.disks[disk].current_power_w();
        self.degraded.insert(disk, self.now);
        let epoch = u64::from(self.epochs[disk]);
        self.emit(|| SimEvent::DiskFailed { disk, epoch });

        // The dead disk's latent extents leave with it: the rebuild
        // rewrites the slot wholesale from the surviving copy, so they
        // are classified overwritten (the data was never the only copy).
        // The *partner's* latent extents, however, are now the sole copy
        // of those bytes while its mirror is gone — the classic
        // LSE-plus-disk-failure double fault. They are lost.
        let wiped = self.corrupt[disk].reset();
        self.faults.lse_overwritten += wiped as u64;
        if let Some(p) = partner {
            let doomed: Vec<(u64, u64)> = self.corrupt[p].iter().collect();
            self.corrupt[p].reset();
            for (offset, bytes) in doomed {
                self.faults.lse_lost += 1;
                self.emit(|| SimEvent::ExtentLost {
                    disk: p,
                    offset,
                    bytes,
                });
            }
        }

        // The dead disk drops out of every running rebuild's source set,
        // and its in-flight rebuild reads move to a surviving source.
        for st in self.rebuilds.values_mut() {
            st.sources.retain(|&s| s != disk);
        }
        let mut policy_owned = Vec::new();
        for req in aborted {
            if let Some(slot) = self.rebuild_ios.get(&req.id).copied() {
                self.reissue_rebuild_read(slot, req.id);
            } else if let Some((d, _, _, _)) = self.scrub_ios.remove(&req.id) {
                // A scrub chunk died with the disk; the pass resumes from
                // the same cursor once the replacement is rebuilt.
                self.scrub_state[d].inflight = false;
                self.span_scrub_end(d);
            } else {
                policy_owned.push(req);
            }
        }
        Some(policy_owned)
    }

    /// Classifies a completed policy I/O against the fault plan: a
    /// transient timeout, a failed end-to-end checksum (the read touched
    /// a latent corrupt extent), a Bernoulli latent sector error (reads
    /// only), or a clean completion. Rebuild and scrub I/O are exempt —
    /// the driver routes them through [`SimCtx::on_rebuild_io`] /
    /// [`SimCtx::on_scrub_io`] before classification.
    pub fn classify_completion(&mut self, disk: DiskId, req: &DiskRequest) -> IoOutcome {
        let p_timeout = self.fault_plan.timeout_per_io;
        if p_timeout > 0.0 && self.fault_rng.chance(p_timeout) {
            self.faults.timeouts += 1;
            let io = req.id;
            self.emit(|| SimEvent::IoTimeout { io });
            return IoOutcome::Timeout;
        }
        // End-to-end verification: a read whose extent checksum fails is
        // surfaced as a media error so the policy's existing redirect
        // machinery re-reads the surviving mirror copy; the touched
        // latent extents are classified (repaired-on-read or lost) right
        // here so none can later be returned as clean data. A write that
        // covers a latent extent simply replaces the bad bytes.
        if !self.corrupt[disk].is_empty() && self.corrupt[disk].overlaps(req.offset, req.bytes) {
            match req.kind {
                IoKind::Read => {
                    self.classify_latent_extents(disk, req.offset, req.bytes, false);
                    self.retries.remove(&req.id);
                    let io = req.id;
                    self.emit(|| SimEvent::MediaError { io });
                    return IoOutcome::MediaError;
                }
                IoKind::Write => {
                    let n = self.corrupt[disk].clear_overlapping(req.offset, req.bytes);
                    self.faults.lse_overwritten += n as u64;
                }
            }
        }
        let p_media = self.fault_plan.media_error_per_read;
        if req.kind == IoKind::Read && p_media > 0.0 && self.fault_rng.chance(p_media) {
            self.faults.media_errors += 1;
            self.retries.remove(&req.id);
            let io = req.id;
            self.emit(|| SimEvent::MediaError { io });
            return IoOutcome::MediaError;
        }
        if !self.retries.is_empty() {
            self.retries.remove(&req.id);
        }
        IoOutcome::Ok
    }

    /// Takes every latent extent of `disk` touching `[start, start+len)`
    /// and classifies its fate: repaired from a clean surviving mirror
    /// copy, or lost (partner degraded, absent, or corrupt at the same
    /// extent — in which case the partner's copy is classified lost too,
    /// so no extent is ever counted twice or silently dropped). Returns
    /// true if at least one extent was repaired.
    fn classify_latent_extents(
        &mut self,
        disk: DiskId,
        start: u64,
        len: u64,
        by_scrub: bool,
    ) -> bool {
        let extents = self.corrupt[disk].take_overlapping(start, len);
        if extents.is_empty() {
            return false;
        }
        let partner = surviving_partner(&self.geometry, disk).filter(|&p| !self.is_degraded(p));
        let mut any_repaired = false;
        for (offset, bytes) in extents {
            match partner {
                Some(p) if !self.corrupt[p].overlaps(offset, bytes) => {
                    if by_scrub {
                        self.faults.lse_repaired_by_scrub += 1;
                        self.emit(|| SimEvent::ScrubRepair {
                            disk,
                            offset,
                            bytes,
                        });
                    } else {
                        self.faults.lse_repaired_on_read += 1;
                    }
                    any_repaired = true;
                }
                Some(p) => {
                    for (po, pb) in self.corrupt[p].take_overlapping(offset, bytes) {
                        self.faults.lse_lost += 1;
                        self.emit(|| SimEvent::ExtentLost {
                            disk: p,
                            offset: po,
                            bytes: pb,
                        });
                    }
                    self.faults.lse_lost += 1;
                    self.emit(|| SimEvent::ExtentLost {
                        disk,
                        offset,
                        bytes,
                    });
                }
                None => {
                    self.faults.lse_lost += 1;
                    self.emit(|| SimEvent::ExtentLost {
                        disk,
                        offset,
                        bytes,
                    });
                }
            }
        }
        any_repaired
    }

    /// Books a timeout for request `id`: returns the backoff before the
    /// next retry (exponential, doubling per attempt), or `None` when the
    /// retry budget is exhausted and the request is counted lost.
    pub fn note_timeout(&mut self, id: u64) -> Option<Duration> {
        let attempts = self.retries.entry(id).or_insert(0);
        if *attempts >= self.fault_plan.max_retries {
            self.retries.remove(&id);
            self.faults.io_lost += 1;
            self.emit(|| SimEvent::IoLost { io: id });
            return None;
        }
        *attempts += 1;
        self.faults.retries += 1;
        let backoff = self.fault_plan.retry_backoff * 2u64.pow(*attempts - 1);
        self.emit(|| SimEvent::IoRetry {
            io: id,
            backoff_us: backoff.as_micros(),
        });
        Some(backoff)
    }

    /// Records that a user read was redirected to a surviving copy.
    pub fn note_redirect(&mut self) {
        self.faults.reads_redirected += 1;
        if self.faults.time_to_first_redirect.is_none() {
            if let Some(t0) = self.first_failure_at {
                self.faults.time_to_first_redirect = Some(self.now.since(t0));
            }
        }
    }

    /// Closes the degraded-time window at `now` (called by the driver
    /// when the run ends with a rebuild still outstanding).
    pub fn finalize_faults(&mut self) {
        if let Some(since) = self.degraded_since.take() {
            self.faults.degraded_time += self.now.since(since);
        }
        if !self.degraded.is_empty() {
            // Keep the window open for any further accounting.
            self.degraded_since = Some(self.now);
        }
        self.faults.lse_latent_at_end = self.corrupt.iter().map(|m| m.len() as u64).sum();
    }

    // ------------------------------------------------------------------
    // Latent sector errors, shocks, and the scrub engine
    // ------------------------------------------------------------------

    /// A pre-sampled LSE candidate fired on `disk`. Candidates are drawn
    /// at the *maximum* configured rate; Poisson thinning accepts each
    /// with probability `rate(power state) / max rate`, so a spun-down
    /// disk accrues latent errors at `lse_rate_standby` and a spinning
    /// one at `lse_rate_active` without the schedule depending on the
    /// (workload-driven) power trajectory.
    pub fn on_lse_candidate(&mut self, disk: DiskId) {
        let max = self.fault_plan.max_lse_rate();
        if max <= 0.0 || disk >= self.corrupt.len() {
            return;
        }
        let rate = if self.disks[disk].power_state().is_spun_up() {
            self.fault_plan.lse_rate_active
        } else {
            self.fault_plan.lse_rate_standby
        };
        if !self.lse_rng.chance((rate / max).clamp(0.0, 1.0)) {
            return;
        }
        let extent = self.fault_plan.lse_extent;
        let region = self.geometry.data_region();
        let Some(offset) = Self::draw_offset(&mut self.lse_rng, region, extent) else {
            return;
        };
        self.apply_corruption(disk, offset);
    }

    /// Draws an aligned corruption offset inside `[0, region)`, or `None`
    /// when the region cannot hold one extent.
    fn draw_offset(rng: &mut SimRng, region: u64, extent: u64) -> Option<u64> {
        if extent == 0 || region < extent {
            return None;
        }
        let slots = (region - extent) / LSE_ALIGN + 1;
        Some(rng.below(slots) * LSE_ALIGN)
    }

    /// Marks one extent of `disk` latent at `offset`. Skipped silently
    /// when the slot is degraded (the replacement holds no data yet) or
    /// the extent overlaps one already latent — only freshly recorded
    /// extents enter the injected count, so conservation is exact.
    pub fn apply_corruption(&mut self, disk: DiskId, offset: u64) {
        if disk >= self.corrupt.len() || self.is_degraded(disk) {
            return;
        }
        let bytes = self.fault_plan.lse_extent;
        let region = self.geometry.data_region();
        if bytes == 0 || region < bytes {
            return;
        }
        let offset = offset.min(region - bytes);
        if self.corrupt[disk].insert(offset, bytes) {
            self.faults.lse_injected += 1;
            self.emit(|| SimEvent::CorruptionInjected {
                disk,
                offset,
                bytes,
            });
        }
    }

    /// Expands one enclosure shock into per-disk effects. A shock picks a
    /// random enclosure (a contiguous group of `shock_enclosure` mirrored
    /// slots), and each member, after a small independent jitter inside
    /// the correlation window, either fails outright (probability
    /// `shock_fail_prob`) or takes a latent corrupt extent. The caller
    /// (the driver) schedules the returned effects — failing a disk can
    /// cascade into recovery planning, which is the driver's domain.
    pub fn expand_shock(&mut self) -> Vec<(Duration, ShockEffect)> {
        let fail_prob = self.fault_plan.shock_fail_prob;
        let window_us = self.fault_plan.correlation_window.as_micros().max(1);
        let extent = self.fault_plan.lse_extent;
        let region = self.geometry.data_region();
        let mirrored = 2 * self.geometry.pairs();
        if mirrored == 0 {
            return Vec::new();
        }
        let enclosure = self.fault_plan.shock_enclosure.clamp(1, mirrored);
        let enclosures = mirrored.div_ceil(enclosure);
        let base = self.shock_rng.below(enclosures as u64) as usize * enclosure;
        let members = base..(base + enclosure).min(mirrored);
        let disks = members.len();
        self.faults.shocks_injected += 1;
        let enclosure_base = base;
        self.emit(|| SimEvent::ShockInjected {
            enclosure_base,
            disks,
        });
        let mut effects = Vec::with_capacity(disks);
        for d in members {
            let jitter = Duration::from_micros(self.shock_rng.below(window_us));
            if self.shock_rng.chance(fail_prob) {
                effects.push((jitter, ShockEffect::Fail(d)));
            } else if let Some(off) = Self::draw_offset(&mut self.shock_rng, region, extent) {
                effects.push((jitter, ShockEffect::Corrupt(d, off)));
            }
        }
        effects
    }

    /// One scrub scheduling slot: for every mirrored disk that is spun
    /// up, not parked or parking, not degraded, and has no scrub chunk in
    /// flight, issues the next sequential background verify read. The
    /// engine is power-aware by construction — it piggybacks on disks the
    /// workload already keeps spinning and never spins one up (or cancels
    /// a pending park) just to scrub, so RoLo-E's standby legs stay in
    /// standby.
    pub fn on_scrub_tick(&mut self) {
        if !self.scrub_enabled {
            return;
        }
        let region = self.geometry.data_region();
        if region == 0 {
            return;
        }
        let mirrored = (2 * self.geometry.pairs()).min(self.disks.len());
        for d in 0..mirrored {
            if self.scrub_state[d].inflight || self.is_degraded(d) {
                continue;
            }
            if !self.disks[d].power_state().is_spun_up() || self.disks[d].is_park_pending() {
                continue;
            }
            let (offset, bytes, first, pass) = {
                let st = &mut self.scrub_state[d];
                let offset = st.cursor;
                let bytes = self.scrub_chunk.min(region - offset);
                if bytes == 0 {
                    st.cursor = 0;
                    continue;
                }
                st.inflight = true;
                let first = !st.started;
                st.started = true;
                (offset, bytes, first, st.pass)
            };
            if first {
                self.emit(|| SimEvent::ScrubStart { disk: d, pass });
            }
            let id = self.alloc_io_id();
            self.scrub_ios
                .insert(id, (d, ScrubPhase::Verify, offset, bytes));
            self.span_scrub_begin(d);
            self.submit_with_id(d, id, IoKind::Read, offset, bytes, Priority::Background);
        }
    }

    /// True if request `id` belongs to the scrub engine. The driver
    /// checks this before classifying a completion as policy I/O.
    #[inline]
    pub fn is_scrub_io(&self, id: u64) -> bool {
        !self.scrub_ios.is_empty() && self.scrub_ios.contains_key(&id)
    }

    /// Completes one scrub transfer. A verify read checks the chunk
    /// against the integrity map and, when a latent extent was repaired
    /// from its mirror copy, issues a background repair write over the
    /// same range before the next chunk; otherwise the cursor simply
    /// advances. Completing the last chunk of the region closes the pass.
    pub fn on_scrub_io(&mut self, req: &DiskRequest) {
        let Some((disk, phase, offset, bytes)) = self.scrub_ios.remove(&req.id) else {
            return;
        };
        match phase {
            ScrubPhase::Repair => {
                self.scrub_state[disk].inflight = false;
                self.span_scrub_end(disk);
            }
            ScrubPhase::Verify => {
                self.faults.scrub_chunks += 1;
                self.faults.scrub_bytes += bytes;
                let repaired = !self.corrupt[disk].is_empty()
                    && self.classify_latent_extents(disk, offset, bytes, true);
                let region = self.geometry.data_region();
                let completed = {
                    let st = &mut self.scrub_state[disk];
                    st.pass_bytes += bytes;
                    st.cursor += bytes;
                    if st.cursor >= region {
                        let done = (st.pass, st.pass_bytes);
                        st.cursor = 0;
                        st.pass += 1;
                        st.pass_bytes = 0;
                        st.started = false;
                        st.last_pass_at = Some(self.now);
                        Some(done)
                    } else {
                        None
                    }
                };
                if let Some((pass, pass_bytes)) = completed {
                    self.faults.scrub_passes += 1;
                    self.emit(|| SimEvent::ScrubComplete {
                        disk,
                        pass,
                        bytes: pass_bytes,
                    });
                }
                if repaired {
                    let id = self.alloc_io_id();
                    self.scrub_ios
                        .insert(id, (disk, ScrubPhase::Repair, offset, bytes));
                    self.submit_with_id(
                        disk,
                        id,
                        IoKind::Write,
                        offset,
                        bytes,
                        Priority::Background,
                    );
                } else {
                    self.scrub_state[disk].inflight = false;
                    self.span_scrub_end(disk);
                }
            }
        }
    }

    /// Number of completed scrub passes over `disk`.
    pub fn scrub_pass(&self, disk: DiskId) -> u64 {
        self.scrub_state.get(disk).map_or(0, |st| st.pass)
    }

    /// Time since `disk`'s last completed scrub pass, or `None` if no
    /// pass has completed yet — the disk's *scrub age*, the window in
    /// which a latent error could still be hiding.
    pub fn scrub_age(&self, disk: DiskId) -> Option<Duration> {
        self.scrub_state
            .get(disk)
            .and_then(|st| st.last_pass_at)
            .map(|t| self.now.since(t))
    }

    /// Number of latent (still undetected) corrupt extents on `disk`.
    pub fn latent_extents(&self, disk: DiskId) -> usize {
        self.corrupt.get(disk).map_or(0, |m| m.len())
    }

    // ------------------------------------------------------------------
    // Rebuild engine
    // ------------------------------------------------------------------

    /// Starts rebuilding slot `plan.failed` onto its replacement disk:
    /// `total_bytes` are copied in 1 MiB (`REBUILD_CHUNK`) chunks, read
    /// round-robin from the plan's participant disks and written to the
    /// replacement at background priority, so foreground I/O naturally
    /// throttles the rebuild via the idle-slot guard. A zero-byte rebuild
    /// (nothing worth copying, e.g. a log disk holding only obsolete
    /// second copies) completes immediately. Idempotent per slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not degraded.
    pub fn begin_rebuild(&mut self, plan: &RecoveryPlan, total_bytes: u64) {
        let slot = plan.failed;
        assert!(self.is_degraded(slot), "rebuild target {slot} not degraded");
        if self.rebuilds.contains_key(&slot) {
            return;
        }
        self.emit(|| SimEvent::RebuildStarted {
            slot,
            bytes: total_bytes,
        });
        if total_bytes == 0 {
            self.span_rebuild_begin(slot, &[slot]);
            self.complete_rebuild(slot, self.degraded[&slot]);
            return;
        }
        let mut sources: Vec<DiskId> = plan
            .wake
            .iter()
            .chain(plan.silent.iter())
            .copied()
            .filter(|&d| d != slot && !self.is_degraded(d))
            .collect();
        if sources.is_empty() {
            let partner =
                surviving_partner(&self.geometry, slot).expect("rebuild with no data source");
            sources.push(partner);
        }
        for &d in &sources {
            self.spin_up(d);
        }
        // The rebuild's copy loop occupies the replacement and every
        // source disk; foreground legs delayed behind its transfers on
        // any of them link to this span.
        let mut covered = sources.clone();
        covered.push(slot);
        self.span_rebuild_begin(slot, &covered);
        let started = self.degraded[&slot];
        self.rebuilds.insert(
            slot,
            RebuildState {
                sources,
                next_source: 0,
                total: total_bytes,
                issued: 0,
                written: 0,
                started,
                inflight: IoMap::default(),
            },
        );
        for _ in 0..REBUILD_WINDOW {
            self.issue_rebuild_read(slot);
        }
    }

    /// True if sub-request `id` belongs to the rebuild engine rather
    /// than the policy.
    #[inline]
    pub fn is_rebuild_io(&self, id: u64) -> bool {
        !self.rebuild_ios.is_empty() && self.rebuild_ios.contains_key(&id)
    }

    /// Advances the rebuild owning the completed request: a finished
    /// chunk read becomes a write to the replacement; a finished write
    /// pulls the next chunk or completes the rebuild. Completed slots are
    /// queued for [`SimCtx::take_finished_rebuilds`].
    pub fn on_rebuild_io(&mut self, req: &DiskRequest) {
        let slot = self
            .rebuild_ios
            .remove(&req.id)
            .expect("completion for unregistered rebuild io");
        let st = self.rebuilds.get_mut(&slot).expect("rebuild state present");
        let (phase, offset, bytes) = st.inflight.remove(&req.id).expect("rebuild io in flight");
        match phase {
            RebuildPhase::Read => {
                let id = self.alloc_io_id();
                let st = self.rebuilds.get_mut(&slot).expect("rebuild state present");
                st.inflight.insert(id, (RebuildPhase::Write, offset, bytes));
                self.rebuild_ios.insert(id, slot);
                self.submit_with_id(slot, id, IoKind::Write, offset, bytes, Priority::Background);
            }
            RebuildPhase::Write => {
                st.written += bytes;
                self.faults.rebuild_bytes += bytes;
                let done = st.written >= st.total && st.inflight.is_empty();
                let started = st.started;
                if done {
                    self.complete_rebuild(slot, started);
                } else {
                    self.issue_rebuild_read(slot);
                }
            }
        }
    }

    /// Drains the slots whose rebuild completed since the last call, so
    /// the driver can notify the policy.
    pub fn take_finished_rebuilds(&mut self) -> Vec<DiskId> {
        std::mem::take(&mut self.finished_rebuilds)
    }

    fn complete_rebuild(&mut self, slot: DiskId, started: SimTime) {
        self.span_rebuild_end(slot);
        self.rebuilds.remove(&slot);
        self.degraded.remove(&slot);
        self.faults.rebuilds_completed += 1;
        self.faults.rebuild_durations.push(self.now.since(started));
        let duration_us = self.now.since(started).as_micros();
        self.emit(|| SimEvent::RebuildCompleted { slot, duration_us });
        if self.degraded.is_empty() {
            if let Some(since) = self.degraded_since.take() {
                self.faults.degraded_time += self.now.since(since);
            }
        }
        self.finished_rebuilds.push(slot);
    }

    /// Issues the next chunk read of `slot`'s rebuild, if any remains.
    fn issue_rebuild_read(&mut self, slot: DiskId) {
        let Some(st) = self.rebuilds.get_mut(&slot) else {
            return;
        };
        if st.issued >= st.total || st.sources.is_empty() {
            return;
        }
        let offset = st.issued;
        let bytes = REBUILD_CHUNK.min(st.total - st.issued);
        st.issued += bytes;
        let source = st.sources[st.next_source % st.sources.len()];
        st.next_source += 1;
        let id = self.alloc_io_id();
        let st = self.rebuilds.get_mut(&slot).expect("rebuild state present");
        st.inflight.insert(id, (RebuildPhase::Read, offset, bytes));
        self.rebuild_ios.insert(id, slot);
        self.submit_with_id(
            source,
            id,
            IoKind::Read,
            offset,
            bytes,
            Priority::Background,
        );
    }

    /// Re-issues an in-flight rebuild read aborted by a source failure on
    /// the next surviving source (the dead source has already been
    /// removed from the rebuild's source list).
    fn reissue_rebuild_read(&mut self, slot: DiskId, id: u64) {
        let st = self.rebuilds.get_mut(&slot).expect("rebuild state present");
        let (phase, offset, bytes) = st.inflight[&id];
        debug_assert_eq!(
            phase,
            RebuildPhase::Read,
            "rebuild writes target the degraded slot, which cannot fail again"
        );
        if st.sources.is_empty() {
            // No surviving source: the pair partner must still be alive
            // (double faults are suppressed), so fall back to it.
            let partner =
                surviving_partner(&self.geometry, slot).expect("rebuild with no data source");
            st.sources.push(partner);
        }
        let source = st.sources[st.next_source % st.sources.len()];
        st.next_source += 1;
        self.submit_with_id(
            source,
            id,
            IoKind::Read,
            offset,
            bytes,
            Priority::Background,
        );
    }
}

/// Which disk wake a driver event corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeKind {
    /// An I/O completion.
    Io,
    /// A spin-up completion.
    SpinUp,
    /// A spin-down completion.
    SpinDown,
    /// A deferred-background retry.
    BgRetry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn ctx() -> SimCtx {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        let geo = cfg.geometry().unwrap();
        let standby = vec![false; cfg.disk_count()];
        SimCtx::new(&cfg, geo, &standby)
    }

    #[test]
    fn submit_produces_wake() {
        let mut c = ctx();
        c.submit(0, IoKind::Write, 0, 4096, Priority::Foreground);
        let wakes = c.take_wakes();
        assert_eq!(wakes.len(), 1);
        assert!(c.take_wakes().is_empty(), "take_wakes drains");
    }

    #[test]
    fn user_tracking_counts_subs() {
        let mut c = ctx();
        let slot = c.register_user(7, ReqKind::Write, SimTime::ZERO, 2);
        c.now = SimTime::from_millis(5);
        assert!(c.user_sub_done(slot).is_none());
        let done = c.user_sub_done(slot).unwrap();
        assert_eq!(done.kind, ReqKind::Write);
        assert_eq!(done.response, Duration::from_millis(5));
        assert_eq!(c.responses.count(), 1);
        assert_eq!(c.write_responses.count(), 1);
        assert_eq!(c.read_responses.count(), 0);
        assert_eq!(c.outstanding_users(), 0);
    }

    #[test]
    fn add_user_subs_extends() {
        let mut c = ctx();
        let slot = c.register_user(1, ReqKind::Read, SimTime::ZERO, 1);
        c.add_user_subs(slot, 1);
        assert!(c.user_sub_done(slot).is_none());
        assert!(c.user_sub_done(slot).is_some());
    }

    #[test]
    #[should_panic(expected = "unknown user request slot")]
    fn stale_slot_rejected() {
        let mut c = ctx();
        let slot = c.register_user(1, ReqKind::Read, SimTime::ZERO, 1);
        assert!(c.user_sub_done(slot).is_some());
        // A second registration may recycle the slab index; the stale
        // handle's generation keeps it from aliasing the new request.
        let _other = c.register_user(2, ReqKind::Read, SimTime::ZERO, 1);
        c.user_sub_done(slot);
    }

    #[test]
    fn standby_mask_respected() {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        let geo = cfg.geometry().unwrap();
        let standby = vec![false, false, true, true];
        let c = SimCtx::new(&cfg, geo, &standby);
        assert_eq!(c.disk(0).power_state(), PowerState::Idle);
        assert_eq!(c.disk(2).power_state(), PowerState::Standby);
        assert_eq!(c.spin_cycles(), 0, "initial standby costs no spin cycle");
    }

    #[test]
    fn energy_accumulates() {
        let mut c = ctx();
        c.now = SimTime::from_secs(10);
        let e = c.total_energy();
        // 4 idle disks × 10.2 W × 10 s.
        assert!((e - 4.0 * 10.2 * 10.0).abs() < 1e-6, "{e}");
        assert_eq!(c.energy_by_disk().len(), 4);
    }

    #[test]
    fn read_over_latent_extent_repairs_from_partner() {
        let mut c = ctx();
        c.apply_corruption(0, 4096);
        assert_eq!(c.faults.lse_injected, 1);
        assert_eq!(c.latent_extents(0), 1);
        let req = DiskRequest::new(77, IoKind::Read, 0, 64 * 1024, Priority::Foreground);
        assert_eq!(c.classify_completion(0, &req), IoOutcome::MediaError);
        assert_eq!(c.faults.lse_repaired_on_read, 1);
        assert_eq!(c.latent_extents(0), 0);
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn latent_extents_on_both_copies_are_lost() {
        let mut c = ctx();
        c.apply_corruption(0, 0);
        c.apply_corruption(2, 0); // pair 0's mirror
        let req = DiskRequest::new(1, IoKind::Read, 0, 8192, Priority::Foreground);
        assert_eq!(c.classify_completion(0, &req), IoOutcome::MediaError);
        assert_eq!(c.faults.lse_lost, 2, "both copies of the extent are gone");
        assert_eq!(c.latent_extents(0) + c.latent_extents(2), 0);
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn write_replaces_latent_extent() {
        let mut c = ctx();
        c.apply_corruption(0, 4096);
        let req = DiskRequest::new(1, IoKind::Write, 0, 64 * 1024, Priority::Foreground);
        assert_eq!(c.classify_completion(0, &req), IoOutcome::Ok);
        assert_eq!(c.faults.lse_overwritten, 1);
        assert_eq!(c.latent_extents(0), 0);
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn disk_failure_dooms_partner_latent_extents() {
        let mut c = ctx();
        c.apply_corruption(0, 0); // will become the sole copy
        c.apply_corruption(2, 4096); // dies with the disk
        c.fail_disk(2).expect("first failure injects");
        assert_eq!(
            c.faults.lse_overwritten, 1,
            "dead disk's extent is rebuilt over"
        );
        assert_eq!(
            c.faults.lse_lost, 1,
            "surviving copy's latent extent lost its mirror"
        );
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn corruption_skips_degraded_slots() {
        let mut c = ctx();
        c.fail_disk(0).expect("first failure injects");
        c.apply_corruption(0, 0);
        assert_eq!(c.faults.lse_injected, 0, "replacement holds no data yet");
    }

    #[test]
    fn scrub_tick_skips_spun_down_disks() {
        let mut cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        cfg.scrub_enabled = true;
        let geo = cfg.geometry().unwrap();
        let standby = vec![false, false, true, true];
        let mut c = SimCtx::new(&cfg, geo, &standby);
        c.on_scrub_tick();
        let targets: Vec<DiskId> = c.take_wakes().into_iter().map(|(d, _)| d).collect();
        assert!(!targets.is_empty(), "spun-up disks are scrubbed");
        assert!(
            targets.iter().all(|&d| d < 2),
            "scrub must never touch a spun-down disk: {targets:?}"
        );
    }

    #[test]
    fn scrub_pass_repairs_latent_extents_and_records_age() {
        let mut cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        cfg.scrub_enabled = true;
        cfg.scrub_chunk = cfg.data_region(); // whole pass in one chunk
        let geo = cfg.geometry().unwrap();
        let standby = vec![false; cfg.disk_count()];
        let mut c = SimCtx::new(&cfg, geo, &standby);
        c.apply_corruption(0, 0);
        c.on_scrub_tick();
        // Drive every wake to completion, feeding scrub completions back.
        for _ in 0..64 {
            let mut wakes = c.take_wakes();
            if wakes.is_empty() {
                break;
            }
            wakes.sort_by_key(|(_, w)| w.due());
            for (d, w) in wakes {
                c.now = w.due();
                match w {
                    DiskWake::Io(_) => {
                        let req = c.deliver_wake(d, WakeKind::Io).expect("io wake");
                        if c.is_scrub_io(req.id) {
                            c.on_scrub_io(&req);
                        }
                    }
                    DiskWake::SpinUp(_) => {
                        c.deliver_wake(d, WakeKind::SpinUp);
                    }
                    DiskWake::SpinDown(_) => {
                        c.deliver_wake(d, WakeKind::SpinDown);
                    }
                    DiskWake::BgRetry(_) => {
                        c.deliver_wake(d, WakeKind::BgRetry);
                    }
                }
            }
        }
        assert_eq!(c.faults.lse_repaired_by_scrub, 1);
        assert_eq!(c.latent_extents(0), 0);
        assert_eq!(c.scrub_pass(0), 1, "disk 0 completed one pass");
        assert!(c.scrub_age(0).is_some());
        assert_eq!(c.faults.scrub_passes, 4, "every disk completed a pass");
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    proptest::proptest! {
        /// Drain-in-place regression: for any interleaving of submits
        /// and timers, `drain_wakes_into`/`drain_timers_into` must hand
        /// the driver exactly the sequences `take_wakes`/`take_timers`
        /// did before the rewrite — same elements, same order.
        #[test]
        fn prop_drain_into_matches_take(
            ops in proptest::collection::vec((0usize..4, 0u64..3, 1u64..5000), 1..40),
        ) {
            let mut a = ctx();
            let mut b = ctx();
            let mut wakes = Vec::new();
            let mut timers = Vec::new();
            for (i, &(disk4, kind, arg)) in ops.iter().enumerate() {
                for c in [&mut a, &mut b] {
                    let disk = disk4 % c.disk_count();
                    match kind {
                        0 => {
                            c.submit(disk, IoKind::Write, arg * 4096, 4096, Priority::Foreground);
                        }
                        1 => {
                            c.submit(disk, IoKind::Read, arg * 4096, 4096, Priority::Background);
                        }
                        _ => c.set_timer(Duration::from_micros(arg), i as u64),
                    }
                }
                proptest::prop_assert_eq!(a.has_pending(), b.has_pending());
                a.drain_wakes_into(&mut wakes);
                a.drain_timers_into(&mut timers);
                let tw = b.take_wakes();
                let tt = b.take_timers();
                proptest::prop_assert_eq!(wakes.len(), tw.len());
                for (x, y) in wakes.iter().zip(tw.iter()) {
                    proptest::prop_assert_eq!(x.0, y.0);
                    proptest::prop_assert_eq!(x.1.due(), y.1.due());
                }
                proptest::prop_assert_eq!(&timers, &tt);
                wakes.clear();
                timers.clear();
            }
            proptest::prop_assert!(!a.has_pending() && !b.has_pending());
        }
    }
}
