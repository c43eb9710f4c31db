//! The benchmark's workloads, how each is set up and run, and the
//! guards that decide whether a run counts.

use crate::timed::{PolicyTimes, TimedPolicy};
use rolo_core::{
    run_trace_observed, Policy, Raid10Policy, RoloEPolicy, RoloFlavor, RoloPolicy, RunObservations,
    Scheme, SimConfig, SimReport,
};
use rolo_disk::{DiskParams, ServiceModel};
use rolo_obs::NullSink;
use rolo_sim::{Duration, SimRng};
use rolo_trace::{TraceProfile, TraceRecord};
use std::hint::black_box;
use std::time::Instant;

/// Mirrored pairs in every workload (a 40-disk array).
pub const PAIRS: usize = 20;

/// Logger region of the RoLo workloads: the small-free-space end of the
/// paper's Fig 13 sweep, where rotation and destaging actually run.
pub const SMALL_LOGGER: u64 = 1 << 30;

/// One benchmark workload: a batch replay of a pre-generated synthetic
/// MSR profile, one simulation at a time (a closed loop, one client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RoLo-P × proj_0 × 48 h, 1 GiB logger, telemetry on: the segment
    /// journal, logger space, rotation and decentralized destaging.
    RoloPRotate,
    /// RoLo-E × hm_1 × 168 h, 1 GiB logger, spans + exemplars + RCA on:
    /// read-miss spin-ups and the only run of the forensics hooks.
    RoloEForensics,
    /// RAID10 × proj_0 × 168 h, telemetry off: no logging, no power
    /// transitions, no observation — queue, driver and disk service only.
    Raid10Bare,
}

impl Workload {
    /// Every workload, in the order the runner visits them.
    pub const ALL: [Workload; 3] = [
        Workload::RoloPRotate,
        Workload::RoloEForensics,
        Workload::Raid10Bare,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoloPRotate => "rolo_p_rotate",
            Workload::RoloEForensics => "rolo_e_forensics",
            Workload::Raid10Bare => "raid10_bare",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn profile(self) -> TraceProfile {
        match self {
            Workload::RoloEForensics => rolo_trace::profiles::hm_1(),
            Workload::RoloPRotate | Workload::Raid10Bare => rolo_trace::profiles::proj_0(),
        }
    }

    /// Simulated length of the trace.
    pub fn duration(self) -> Duration {
        let hours = match self {
            // 48 h, not 24 h: proj_0's request count varies 8 % between
            // seeds over 24 h (interquartile range) but 3 % over 48 h.
            Workload::RoloPRotate => 48,
            Workload::RoloEForensics | Workload::Raid10Bare => 168,
        };
        Duration::from_secs(hours * 3600)
    }

    /// The workload's configuration. With `observe` false every
    /// observation hook is off (telemetry, spans, exemplars, RCA): the
    /// ablation the per-layer `obs.*` figures are measured against.
    pub fn config(self, observe: bool) -> SimConfig {
        let mut cfg = match self {
            Workload::RoloPRotate => SimConfig::paper_default(Scheme::RoloP, PAIRS),
            Workload::RoloEForensics => {
                let mut cfg = SimConfig::paper_default(Scheme::RoloE, PAIRS);
                cfg.rca_enabled = true;
                cfg
            }
            Workload::Raid10Bare => {
                let mut cfg = SimConfig::paper_default(Scheme::Raid10, PAIRS);
                cfg.telemetry_enabled = false;
                cfg
            }
        };
        if self != Workload::Raid10Bare {
            cfg.logger_region = SMALL_LOGGER;
        }
        if !observe {
            cfg.telemetry_enabled = false;
            cfg.exemplars_per_window = 0;
            cfg.rca_enabled = false;
        }
        cfg
    }

    /// Whether the run records per-request spans.
    pub fn spans(self, observe: bool) -> bool {
        observe && self == Workload::RoloEForensics
    }

    /// Checks that the workload's mechanism ran: a run that never
    /// rotates, spins up or raises an alert does not measure what the
    /// workload is for.
    pub fn guard(self, report: &SimReport, obs: &RunObservations) -> Result<(), String> {
        report
            .consistency
            .as_ref()
            .map_err(|e| format!("consistency audit failed: {e}"))?;
        let p = &report.policy;
        let need = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_owned()) };
        match self {
            Workload::RoloPRotate => {
                need(p.rotations >= 1, "no logger rotation")?;
                need(p.destage_cycles >= 1, "no destage cycle")
            }
            Workload::RoloEForensics => {
                need(p.read_miss_spinups >= 1, "no read-miss spin-up")?;
                need(p.destage_cycles >= 1, "no destage cycle")?;
                if let Some(rca) = &obs.rca {
                    rca.check().map_err(|e| format!("RCA conservation: {e}"))?;
                    need(!rca.windows.is_empty(), "no SLO alert window to attribute")?;
                }
                Ok(())
            }
            Workload::Raid10Bare => {
                need(p.log_appended_bytes == 0, "RAID10 logged bytes")?;
                need(report.spin_cycles == 0, "RAID10 spun a disk")
            }
        }
    }
}

/// A controller built for one run, exactly as
/// [`rolo_core::run_scheme_observed`] builds it for the same config.
#[derive(Debug)]
pub enum Built {
    /// RoLo-P or RoLo-R.
    Rolo(RoloPolicy),
    /// RoLo-E.
    RoloE(RoloEPolicy),
    /// Plain RAID10.
    Raid10(Raid10Policy),
}

impl Built {
    /// Builds the controller `cfg.scheme` names.
    pub fn new(cfg: &SimConfig) -> Result<Built, String> {
        let geo = cfg.geometry().map_err(|e| format!("geometry: {e:?}"))?;
        Ok(match cfg.scheme {
            Scheme::Raid10 => Built::Raid10(Raid10Policy::new()),
            Scheme::RoloP | Scheme::RoloR => {
                let flavor = if cfg.scheme == Scheme::RoloP {
                    RoloFlavor::Performance
                } else {
                    RoloFlavor::Reliability
                };
                let mut p = RoloPolicy::new(
                    flavor,
                    cfg.pairs,
                    geo.logger_base(),
                    geo.logger_region(),
                    cfg.rotate_free_threshold,
                    cfg.destage_chunk,
                );
                p.set_eager_spinup(cfg.eager_spinup);
                p.set_segment_tuning(cfg.log_segment, cfg.compact_live_frac, cfg.archive_ttl);
                if cfg.rolo_on_duty > 1 {
                    p.set_on_duty_loggers(cfg.rolo_on_duty);
                }
                Built::Rolo(p)
            }
            Scheme::RoloE => {
                let mut p = RoloEPolicy::new(
                    cfg.pairs,
                    geo.logger_base(),
                    geo.logger_region(),
                    cfg.stripe_unit,
                    cfg.destage_threshold,
                    cfg.destage_chunk,
                    cfg.roloe_idle_spindown,
                    cfg.roloe_cache_fraction,
                );
                p.set_segment_tuning(cfg.log_segment, cfg.archive_ttl);
                if cfg.rolo_on_duty > 1 {
                    p.set_on_duty_pairs(cfg.rolo_on_duty);
                }
                Built::RoloE(p)
            }
            other => return Err(format!("{other:?} is not a benchmark scheme")),
        })
    }
}

/// Everything one workload needs before its first run.
#[derive(Debug)]
pub struct Setup {
    /// The checked configuration.
    pub cfg: SimConfig,
    /// Whether runs record spans.
    pub spans: bool,
    /// The pre-generated trace, in arrival order.
    pub records: Vec<TraceRecord>,
    /// Simulated trace length.
    pub duration: Duration,
    /// Host seconds of the whole set-up.
    pub setup_s: f64,
    /// Host seconds of trace generation alone.
    pub gen_s: f64,
    policy: Option<Built>,
}

impl Setup {
    /// Builds the configuration, checks it, generates the trace from
    /// `seed` into memory and builds the controller, timing it all.
    pub fn new(workload: Workload, seed: u64, observe: bool) -> Result<Setup, String> {
        let t0 = Instant::now();
        let cfg = workload.config(observe);
        cfg.check().map_err(|e| format!("config: {e}"))?;
        let duration = workload.duration();
        let tg = Instant::now();
        let records: Vec<TraceRecord> = workload.profile().generator(duration, seed).collect();
        let gen_s = tg.elapsed().as_secs_f64();
        let policy = Some(Built::new(&cfg)?);
        Ok(Setup {
            spans: workload.spans(observe),
            cfg,
            records,
            duration,
            setup_s: t0.elapsed().as_secs_f64(),
            gen_s,
            policy,
        })
    }

    /// The controller built during set-up; a fresh one (untimed) once
    /// that has been handed out.
    pub fn policy(&mut self) -> Result<Built, String> {
        match self.policy.take() {
            Some(p) => Ok(p),
            None => Built::new(&self.cfg),
        }
    }
}

/// One finished simulation.
#[derive(Debug)]
pub struct Run {
    /// The simulation report.
    pub report: SimReport,
    /// Out-of-band observations.
    pub obs: RunObservations,
    /// Host seconds from handing the records to the driver until the
    /// report and its consistency audit returned.
    pub run_s: f64,
    /// Controller callback timings (timed runs only).
    pub times: Option<PolicyTimes>,
    /// Completed disk requests per disk (timed runs only).
    pub streams: Vec<Vec<(u64, u64)>>,
}

impl Run {
    /// FNV-1a digest of the report's deterministic serialization.
    pub fn digest(&self) -> String {
        rolo_bench::fnv1a_hex(self.report.deterministic_json().as_bytes())
    }
}

/// Runs `policy` over the set-up trace, untimed per callback.
pub fn run_plain(setup: &Setup, policy: Built) -> Run {
    match policy {
        Built::Rolo(p) => plain(setup, p),
        Built::RoloE(p) => plain(setup, p),
        Built::Raid10(p) => plain(setup, p),
    }
}

/// Runs `policy` inside a [`TimedPolicy`]; with `record` set it also
/// keeps the completed disk-request streams.
pub fn run_timed(setup: &Setup, policy: Built, record: bool) -> Run {
    match policy {
        Built::Rolo(p) => timed(setup, p, record),
        Built::RoloE(p) => timed(setup, p, record),
        Built::Raid10(p) => timed(setup, p, record),
    }
}

fn drive<P: Policy>(setup: &Setup, policy: P) -> (SimReport, P, RunObservations, f64) {
    let t = Instant::now();
    let (report, policy, obs) = run_trace_observed(
        &setup.cfg,
        setup.records.iter().copied(),
        policy,
        setup.duration,
        Box::new(NullSink),
        setup.spans,
    );
    let run_s = t.elapsed().as_secs_f64();
    (report, policy, obs, run_s)
}

fn plain<P: Policy>(setup: &Setup, policy: P) -> Run {
    let (report, _, obs, run_s) = drive(setup, policy);
    Run {
        report,
        obs,
        run_s,
        times: None,
        streams: Vec::new(),
    }
}

fn timed<P: Policy>(setup: &Setup, policy: P, record: bool) -> Run {
    let policy = if record {
        TimedPolicy::recording(policy)
    } else {
        TimedPolicy::new(policy)
    };
    let (report, policy, obs, run_s) = drive(setup, policy);
    Run {
        report,
        obs,
        run_s,
        times: Some(policy.times()),
        streams: policy.into_streams(),
    }
}

/// Replays each disk's request stream through a fresh
/// [`ServiceModel`]; returns host seconds and the number of requests.
pub fn replay_service(params: &DiskParams, seed: u64, streams: &[Vec<(u64, u64)>]) -> (f64, u64) {
    let mut ios = 0u64;
    let mut simulated_us = 0u64;
    let t = Instant::now();
    for (disk, stream) in streams.iter().enumerate() {
        let mut model = ServiceModel::new(params.clone(), SimRng::seed_from(seed ^ disk as u64));
        for &(offset, bytes) in stream {
            simulated_us += model
                .service_time(black_box(offset), black_box(bytes))
                .as_micros();
        }
        ios += stream.len() as u64;
    }
    black_box(simulated_us);
    (t.elapsed().as_secs_f64(), ios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolo_core::{PolicyStats, SimCtx};
    use rolo_disk::{DiskId, DiskRequest, IoOutcome};
    use rolo_trace::SyntheticConfig;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A small array with a mid-run disk failure (so the failure and
    /// rebuild callbacks fire) and read media errors (so `on_io_error`
    /// fires), on a mixed read/write trace.
    fn fault_setup(scheme: Scheme) -> Setup {
        let mut cfg = SimConfig::paper_default(scheme, 4);
        cfg.disk.capacity_bytes = 256 << 20;
        cfg.logger_region = 32 << 20;
        cfg.graid_log_capacity = 64 << 20;
        cfg.faults.disk_failures = vec![(1, Duration::from_secs(120))];
        cfg.faults.media_error_per_read = 0.02;
        let duration = Duration::from_secs(600);
        let mut wl = SyntheticConfig::motivation_write_only(40.0);
        wl.write_ratio = 0.5;
        Setup {
            cfg,
            spans: false,
            records: wl.generator(duration, 11).collect(),
            duration,
            setup_s: 0.0,
            gen_s: 0.0,
            policy: None,
        }
    }

    #[test]
    fn timed_wrapper_forwards_every_callback() {
        for scheme in [Scheme::RoloP, Scheme::RoloE, Scheme::Raid10] {
            let setup = fault_setup(scheme);
            let reference =
                rolo_core::run_scheme(&setup.cfg, setup.records.iter().copied(), setup.duration);
            let plain = run_plain(&setup, Built::new(&setup.cfg).unwrap());
            let timed = run_timed(&setup, Built::new(&setup.cfg).unwrap(), false);

            let f = &timed.report.faults;
            assert_eq!(f.disk_failures, 1, "{scheme}");
            assert_eq!(f.rebuilds_completed, 1, "{scheme}");
            assert!(f.media_errors > 0, "{scheme}: no media error injected");
            timed.report.consistency.as_ref().unwrap();

            let want = rolo_bench::fnv1a_hex(reference.deterministic_json().as_bytes());
            assert_eq!(
                plain.digest(),
                want,
                "{scheme}: controller built differently"
            );
            assert_eq!(timed.digest(), want, "{scheme}: wrapper changed the run");

            let t = timed.times.unwrap();
            assert_eq!(t.user_request.calls, timed.report.user_requests, "{scheme}");
            assert!(t.io_complete.calls > 0 && t.drain.calls > 0, "{scheme}");

            // The defaulted callbacks reach the controller itself, not
            // the trait's default bodies on the wrapper.
            let seen = |timed| match Built::new(&setup.cfg).unwrap() {
                Built::Rolo(p) => probed(&setup, p, timed),
                Built::RoloE(p) => probed(&setup, p, timed),
                Built::Raid10(p) => probed(&setup, p, timed),
            };
            let (plain, timed) = (seen(false), seen(true));
            assert_eq!((plain.failures, plain.rebuilds), (1, 1), "{scheme}");
            assert!(plain.io_errors > 0, "{scheme}");
            assert_eq!(timed, plain, "{scheme}");
        }
    }

    /// The callbacks with default trait bodies, as the controller
    /// under test receives them.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct Seen {
        io_errors: u64,
        failures: u64,
        rebuilds: u64,
    }

    /// Forwards everything to `inner`, counting the defaulted callbacks.
    struct Probe<P> {
        inner: P,
        seen: Rc<Cell<Seen>>,
    }

    impl<P> Probe<P> {
        fn note(&self, count: impl FnOnce(&mut Seen)) {
            let mut seen = self.seen.get();
            count(&mut seen);
            self.seen.set(seen);
        }
    }

    impl<P: Policy> Policy for Probe<P> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn initial_standby(&self, disk: DiskId) -> bool {
            self.inner.initial_standby(disk)
        }
        fn attach(&mut self, ctx: &mut SimCtx) {
            self.inner.attach(ctx)
        }
        fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
            self.inner.on_user_request(ctx, user_id, rec)
        }
        fn on_io_complete(&mut self, ctx: &mut SimCtx, disk: DiskId, req: DiskRequest) {
            self.inner.on_io_complete(ctx, disk, req)
        }
        fn on_io_error(
            &mut self,
            ctx: &mut SimCtx,
            disk: DiskId,
            req: DiskRequest,
            outcome: IoOutcome,
        ) {
            self.note(|s| s.io_errors += 1);
            self.inner.on_io_error(ctx, disk, req, outcome)
        }
        fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
            self.note(|s| s.failures += 1);
            self.inner.on_disk_failure(ctx, disk)
        }
        fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, disk: DiskId) {
            self.note(|s| s.rebuilds += 1);
            self.inner.on_rebuild_complete(ctx, disk)
        }
        fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
            self.inner.on_spin_up(ctx, disk)
        }
        fn on_spin_down(&mut self, ctx: &mut SimCtx, disk: DiskId) {
            self.inner.on_spin_down(ctx, disk)
        }
        fn on_timer(&mut self, ctx: &mut SimCtx, token: u64) {
            self.inner.on_timer(ctx, token)
        }
        fn begin_drain(&mut self, ctx: &mut SimCtx) {
            self.inner.begin_drain(ctx)
        }
        fn is_drained(&self, ctx: &SimCtx) -> bool {
            self.inner.is_drained(ctx)
        }
        fn stats(&self) -> PolicyStats {
            self.inner.stats()
        }
        fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
            self.inner.check_consistency(ctx)
        }
    }

    fn probed<P: Policy>(setup: &Setup, policy: P, timed: bool) -> Seen {
        let seen = Rc::new(Cell::new(Seen::default()));
        let probe = Probe {
            inner: policy,
            seen: Rc::clone(&seen),
        };
        if timed {
            drive(setup, TimedPolicy::new(probe));
        } else {
            drive(setup, probe);
        }
        seen.get()
    }

    #[test]
    fn per_layer_split_closes() {
        let mut setup = fault_setup(Scheme::RoloP);
        setup.cfg.faults = rolo_core::FaultPlan::none();
        let run = run_timed(&setup, Built::new(&setup.cfg).unwrap(), true);
        let t = run.times.unwrap();
        let (policy_s, driver_s) = (t.total_secs(), t.driver_self_s(run.run_s));
        assert!(policy_s > 0.0, "no controller time measured");
        assert!(
            driver_s > 0.0,
            "callbacks outlasted the run: {policy_s} > {}",
            run.run_s
        );
        assert!((policy_s + driver_s - run.run_s).abs() < 1e-12);
        let streamed: usize = run.streams.iter().map(Vec::len).sum();
        assert_eq!(streamed as u64, t.io_complete.calls);
        let (replay_s, ios) = replay_service(&setup.cfg.disk, setup.cfg.seed, &run.streams);
        assert_eq!(ios, streamed as u64);
        assert!(replay_s > 0.0);
    }

    #[test]
    fn every_workload_round_trips_its_name_and_checks_its_config() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for observe in [true, false] {
                let cfg = w.config(observe);
                cfg.check().unwrap();
                Built::new(&cfg).unwrap();
                if !observe {
                    assert!(!cfg.telemetry_enabled && !cfg.rca_enabled && !w.spans(observe));
                }
            }
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
