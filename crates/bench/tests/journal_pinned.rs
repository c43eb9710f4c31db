//! Pinned outputs of logging cells that the golden engine matrix never
//! reaches: RoLo-P/R logging deactivation with direct writes and heavy
//! compaction on a tiny logger region, and mid-run failures of a
//! journal-holding disk — a RoLo-P/R logger mirror, GRAID's dedicated
//! log disk, a RoLo-E on-duty logger — that drive recovery-by-replay
//! and the replayed-map install.
//!
//! Each cell pins the FNV-1a digest of the run's `deterministic_json`
//! and asserts that the cell actually exercised its mechanism, so a
//! change in configuration defaults cannot quietly make the pin vacuous.
//! Any change to the journal, dirty-map or logger-space bookkeeping
//! that alters a single observable byte fails here.

use rolo_bench::fnv1a_hex;
use rolo_core::{run_scheme, FaultPlan, Scheme, SimConfig, SimReport};
use rolo_sim::Duration;
use rolo_trace::profiles;

const SEED: u64 = 7;

fn run(mut cfg: SimConfig, dur: Duration) -> SimReport {
    cfg.seed = SEED;
    let records = profiles::proj_0().generator(dur, SEED);
    let report = run_scheme(&cfg, records, dur);
    assert_eq!(report.consistency, Ok(()), "{}", report.scheme);
    report
}

/// Three pairs, a 4 MiB logger region, one simulated hour: the logger
/// pool runs dry, so logging deactivates, writes go direct, and the
/// compactor relocates live extents between rotations.
fn tight_logger(scheme: Scheme) -> SimReport {
    let mut cfg = SimConfig::paper_default(scheme, 3);
    cfg.logger_region = 4 << 20;
    run(cfg, Duration::from_secs(3600))
}

/// Four pairs, a 256 MiB logger region, and the first on-duty logger
/// mirror (disk 4) failing half-way through the hour: the surviving
/// journals are replayed and the replayed maps installed.
fn logger_failure(scheme: Scheme) -> SimReport {
    let mut cfg = SimConfig::paper_default(scheme, 4);
    cfg.logger_region = 256 << 20;
    cfg.faults = FaultPlan::single(4, Duration::from_secs(1800));
    run(cfg, Duration::from_secs(3600))
}

fn digest(report: &SimReport) -> String {
    fnv1a_hex(report.deterministic_json().as_bytes())
}

#[test]
fn tight_logger_deactivation_is_pinned() {
    for (scheme, want) in [
        (Scheme::RoloP, "c675e44bd5396d4d"),
        (Scheme::RoloR, "8833a39222e9d75a"),
    ] {
        let report = tight_logger(scheme);
        assert!(
            report.policy.deactivations > 0,
            "{scheme}: never deactivated"
        );
        assert!(
            report.policy.direct_writes > 0,
            "{scheme}: no direct writes"
        );
        assert!(
            report.policy.compacted_bytes > 0,
            "{scheme}: never compacted"
        );
        assert_eq!(digest(&report), want, "{scheme}");
    }
}

#[test]
fn logger_failure_replay_is_pinned() {
    for (scheme, want) in [
        (Scheme::RoloP, "0757106f2a786f8b"),
        (Scheme::RoloR, "ad6d0359bc8515cf"),
    ] {
        let report = logger_failure(scheme);
        assert!(report.policy.log_replays > 0, "{scheme}: no replay ran");
        assert_eq!(report.policy.replay_divergence, 0, "{scheme}");
        assert_eq!(digest(&report), want, "{scheme}");
    }
}

/// Four pairs, a 128 MiB GRAID log, and the dedicated log disk (disk 8)
/// failing half-way through the hour, after one whole-log destage cycle
/// set the manifest's stable LSNs: the sole journal dies with it, so
/// every pair with records above its watermark is lost to replay and
/// the forced destage flushes it from the primaries.
#[test]
fn graid_log_disk_failure_replay_is_pinned() {
    let mut cfg = SimConfig::paper_default(Scheme::Graid, 4);
    cfg.graid_log_capacity = 128 << 20;
    cfg.faults = FaultPlan::single(2 * 4, Duration::from_secs(1800));
    let report = run(cfg, Duration::from_secs(3600));
    assert!(report.policy.log_replays > 0, "no replay ran");
    assert_eq!(report.policy.replay_divergence, 0);
    assert!(report.policy.destage_cycles > 0, "never destaged");
    assert_eq!(digest(&report), "c21dfaceacde1319");
}

/// Four pairs, a 256 MiB logger region, and the mirror of the on-duty
/// logger pair (disk 5: the window rotated from pair 0 to pair 1 at the
/// first destage cycle, ~785 s) failing half-way through the hour: the
/// twin copies on the pair's primary replay every record, and the
/// forced destage rotates the window off the degraded pair.
#[test]
fn roloe_on_duty_logger_failure_replay_is_pinned() {
    let mut cfg = SimConfig::paper_default(Scheme::RoloE, 4);
    cfg.logger_region = 256 << 20;
    cfg.faults = FaultPlan::single(5, Duration::from_secs(1800));
    let report = run(cfg, Duration::from_secs(3600));
    assert!(report.policy.log_replays > 0, "no replay ran");
    assert_eq!(report.policy.replay_divergence, 0);
    assert_eq!(digest(&report), "1bcc821ea3b4109b");
}
