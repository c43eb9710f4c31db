//! Behavioural tests of the RAID5 baseline and RoLo-5.

use rolo_core::{run_trace_observed, NullSink, Scheme, SimConfig};
use rolo_parity::{Raid5Geometry, Raid5Policy, Rolo5Policy};
use rolo_sim::Duration;
use rolo_trace::{Burstiness, SizeDist, SyntheticConfig};

fn cfg() -> SimConfig {
    // 8 disks; the scheme field is unused by the parity policies but the
    // driver sizes the array from pairs.
    let mut cfg = SimConfig::paper_default(Scheme::Raid10, 4);
    cfg.logger_region = 64 << 20;
    cfg
}

fn geometry(cfg: &SimConfig) -> Raid5Geometry {
    Raid5Geometry::new(cfg.disk_count(), cfg.stripe_unit, cfg.data_region())
}

fn workload(iops: f64, write_ratio: f64) -> SyntheticConfig {
    SyntheticConfig {
        iops,
        write_ratio,
        read_size: SizeDist::Fixed(16 * 1024),
        write_size: SizeDist::Fixed(16 * 1024),
        sequential_fraction: 0.3,
        write_footprint: 4 << 30,
        read_footprint: 4 << 30,
        read_hot_fraction: 0.5,
        hot_set_bytes: 16 << 20,
        burstiness: Burstiness::Smooth,
        batch_mean: 1.0,
        align: 4096,
    }
}

#[test]
fn raid5_serves_and_stays_consistent() {
    let cfg = cfg();
    let dur = Duration::from_secs(300);
    let wl = workload(60.0, 0.8);
    let report = run_trace_observed(
        &cfg,
        wl.generator(dur, 1),
        Raid5Policy::new(geometry(&cfg)),
        dur,
        Box::new(NullSink),
        false,
    )
    .0;
    report.consistency.as_ref().expect("consistent");
    assert!(report.user_requests > 10_000);
    assert_eq!(report.scheme, "RAID5");
    assert_eq!(report.spin_cycles, 0, "RAID5 keeps every disk spinning");
}

#[test]
fn rolo5_consistent_and_reclaims() {
    let cfg = cfg();
    let geo = geometry(&cfg);
    let dur = Duration::from_secs(600);
    let wl = workload(60.0, 1.0);
    let policy = Rolo5Policy::new(
        geo.clone(),
        cfg.data_region(),
        cfg.logger_region,
        0.02,
        64 * 1024,
    );
    let report = run_trace_observed(
        &cfg,
        wl.generator(dur, 2),
        policy,
        dur,
        Box::new(NullSink),
        false,
    )
    .0;
    report.consistency.as_ref().expect("consistent");
    assert!(report.policy.rotations > 0, "logger must rotate");
    assert!(report.policy.log_appended_bytes > 0);
    assert!(report.policy.destaged_bytes > 0);
}

#[test]
fn rolo5_spends_less_disk_time_than_raid5() {
    // The transplant's measurable win: three I/Os per write (read +
    // in-place write + append) cost less total media time than RAID5's
    // four-op read-modify-write — RoLo-5's aggregate ACTIVE disk time is
    // lower. Its *latency*, however, suffers because appends to
    // data-carrying disks keep losing sequentiality (§VII study finding;
    // see the parity_study binary), so we bound rather than reverse it.
    let cfg = cfg();
    let dur = Duration::from_secs(400);
    let wl = workload(150.0, 1.0);
    let base = run_trace_observed(
        &cfg,
        wl.generator(dur, 3),
        Raid5Policy::new(geometry(&cfg)),
        dur,
        Box::new(NullSink),
        false,
    )
    .0;
    let rolo = run_trace_observed(
        &cfg,
        wl.generator(dur, 3),
        Rolo5Policy::new(
            geometry(&cfg),
            cfg.data_region(),
            cfg.logger_region,
            0.02,
            64 * 1024,
        ),
        dur,
        Box::new(NullSink),
        false,
    )
    .0;
    base.consistency.as_ref().expect("raid5 consistent");
    rolo.consistency.as_ref().expect("rolo5 consistent");
    let base_busy = base.aggregate_energy.active.as_secs_f64();
    let rolo_busy = rolo.aggregate_energy.active.as_secs_f64();
    assert!(
        rolo_busy < base_busy,
        "RoLo-5 busy {rolo_busy:.1}s !< RAID5 busy {base_busy:.1}s"
    );
    // Latency penalty stays bounded at moderate load.
    assert!(
        rolo.write_responses.mean() < base.write_responses.mean() * 6,
        "RoLo-5 {:?} vs RAID5 {:?}",
        rolo.write_responses.mean(),
        base.write_responses.mean()
    );
}

#[test]
fn rolo5_survives_overload_by_deactivating() {
    let mut cfg = cfg();
    cfg.logger_region = 8 << 20;
    let dur = Duration::from_secs(120);
    let wl = workload(400.0, 1.0);
    let policy = Rolo5Policy::new(
        geometry(&cfg),
        cfg.data_region(),
        cfg.logger_region,
        0.02,
        64 * 1024,
    );
    let report = run_trace_observed(
        &cfg,
        wl.generator(dur, 4),
        policy,
        dur,
        Box::new(NullSink),
        false,
    )
    .0;
    report
        .consistency
        .as_ref()
        .expect("consistent after overload");
    assert!(
        report.policy.deactivations > 0
            || report.policy.direct_writes > 0
            || report.policy.rotations > 5,
        "overload must trigger fallback behaviour: {:?}",
        report.policy
    );
}

#[test]
fn rolo5_deterministic() {
    let cfg = cfg();
    let dur = Duration::from_secs(120);
    let wl = workload(50.0, 0.9);
    let run = |seed| {
        run_trace_observed(
            &cfg,
            wl.generator(dur, seed),
            Rolo5Policy::new(
                geometry(&cfg),
                cfg.data_region(),
                cfg.logger_region,
                0.02,
                64 * 1024,
            ),
            dur,
            Box::new(NullSink),
            false,
        )
        .0
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.responses.mean(), b.responses.mean());
}

#[test]
fn mixed_read_write_consistency() {
    let cfg = cfg();
    let dur = Duration::from_secs(300);
    for write_ratio in [0.2, 0.5, 0.95] {
        let wl = workload(40.0, write_ratio);
        let policy = Rolo5Policy::new(
            geometry(&cfg),
            cfg.data_region(),
            cfg.logger_region,
            0.02,
            64 * 1024,
        );
        let report = run_trace_observed(
            &cfg,
            wl.generator(dur, 11),
            policy,
            dur,
            Box::new(NullSink),
            false,
        )
        .0;
        report
            .consistency
            .as_ref()
            .unwrap_or_else(|e| panic!("wr={write_ratio}: {e}"));
        assert!(report.read_responses.count() > 0);
    }
}

#[test]
fn nvram_staging_beats_raid5_on_latency_too() {
    // With the classic Parity Logging fix — durable NVRAM staging of the
    // deltas — the foreground write is read-old + write-new only, and
    // RoLo-5 wins on latency as well as media time.
    let cfg = cfg();
    let dur = Duration::from_secs(400);
    let wl = workload(150.0, 1.0);
    let base = run_trace_observed(
        &cfg,
        wl.generator(dur, 13),
        Raid5Policy::new(geometry(&cfg)),
        dur,
        Box::new(NullSink),
        false,
    )
    .0;
    let mut p = Rolo5Policy::with_loggers(
        geometry(&cfg),
        cfg.data_region(),
        cfg.logger_region,
        0.02,
        cfg.destage_chunk,
        2,
    );
    p.enable_nvram(1 << 20);
    let nv = run_trace_observed(
        &cfg,
        wl.generator(dur, 13),
        p,
        dur,
        Box::new(NullSink),
        false,
    )
    .0;
    base.consistency.as_ref().expect("raid5 consistent");
    nv.consistency.as_ref().expect("nvram consistent");
    assert!(
        nv.write_responses.mean() < base.write_responses.mean(),
        "RoLo-5+NVRAM {:?} !< RAID5 {:?}",
        nv.write_responses.mean(),
        base.write_responses.mean()
    );
    assert!(
        nv.policy.log_appended_bytes > 0,
        "deltas still reach the log"
    );
}
