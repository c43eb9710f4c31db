//! Pinned outputs of the two offline rebuild engines.
//!
//! Every duration (µs), energy (bit-for-bit) and count below was
//! recorded from the mirror rebuild (`rolo_core::simulate_rebuild`) and
//! the RAID5 rebuild (`rolo_parity::simulate_raid5_rebuild`). Any change
//! to how either streams chunks — event order, chunk sizing, source
//! choice, disk seeding — shows up here as an exact mismatch.

use rolo_core::{
    rebuild_primary_failure, recovery_plan, simulate_rebuild, RebuildReport, Scheme, SimConfig,
};
use rolo_parity::{simulate_raid5_rebuild, Raid5Geometry, Raid5RebuildReport};
use rolo_sim::Duration;

/// The rebuild unit tests' geometry: ten pairs, a 1 GiB data region.
fn mirror_cfg(scheme: Scheme) -> SimConfig {
    let mut c = SimConfig::paper_default(scheme, 10);
    c.logger_region = c.disk.capacity_bytes - (1 << 30);
    c
}

fn mirror_report(
    scheme: &str,
    micros: u64,
    energy_bits: u64,
    awakened: usize,
    involved: usize,
    bytes: u64,
) -> RebuildReport {
    RebuildReport {
        scheme: scheme.to_string(),
        duration: Duration::from_micros(micros),
        energy_j: f64::from_bits(energy_bits),
        disks_awakened: awakened,
        disks_involved: involved,
        bytes_rebuilt: bytes,
    }
}

fn assert_mirror(got: &RebuildReport, want: &RebuildReport) {
    assert_eq!(got, want);
    assert_eq!(got.energy_j.to_bits(), want.energy_j.to_bits());
}

#[test]
fn primary_failure_rebuild_is_pinned_for_every_scheme() {
    let cases = [
        (
            Scheme::Raid10,
            &[][..],
            mirror_report("RAID10", 37_247_536, 0x408b962200dbc802, 0, 1, 1 << 30),
        ),
        (
            Scheme::Graid,
            &[][..],
            mirror_report("GRAID", 148_760_919, 0x40cce106aa4e1cbd, 10, 11, 1 << 30),
        ),
        (
            Scheme::RoloP,
            &[3, 4, 5][..],
            mirror_report("RoLo-P", 72_364_423, 0x40ac703355582110, 3, 4, 1 << 30),
        ),
        (
            Scheme::RoloR,
            &[3, 4, 5][..],
            mirror_report("RoLo-R", 72_384_252, 0x40b11b7f10815774, 3, 5, 1 << 30),
        ),
        (
            Scheme::RoloE,
            &[5][..],
            mirror_report("RoLo-E", 48_147_536, 0x4091a3c95259692d, 1, 1, 1 << 30),
        ),
    ];
    for (scheme, recent, want) in cases {
        let got = rebuild_primary_failure(&mirror_cfg(scheme), scheme, recent);
        assert_mirror(&got, &want);
    }
}

#[test]
fn zero_byte_mirror_rebuild_is_pinned() {
    // A zero-byte rebuild still issues one 1-byte read and stops at the
    // first delivered event: the read's completion on an idle source,
    // the 10.9 s spin-up on a standby one.
    let cases = [
        (
            Scheme::Raid10,
            mirror_report("", 5_400, 0x3fc061a60d4562e1, 0, 1, 0),
        ),
        (
            Scheme::RoloE,
            mirror_report("", 10_900_000, 0x406ec5c28f5c28f6, 1, 1, 0),
        ),
    ];
    for (scheme, want) in cases {
        let cfg = mirror_cfg(scheme);
        let plan = recovery_plan(scheme, &cfg.geometry().unwrap(), 0, 5, &[5]);
        let standby = vec![scheme == Scheme::RoloE; cfg.disk_count()];
        let got = simulate_rebuild(&cfg, &plan, &standby, 0);
        assert_mirror(&got, &want);
    }
}

#[test]
fn raid5_rebuild_is_pinned() {
    // `degraded.rs`'s test geometry: eight disks, a 512 MiB data region.
    let mut cfg = SimConfig::paper_default(Scheme::Raid10, 4);
    cfg.logger_region = cfg.disk.capacity_bytes - (512 << 20);
    let geo = Raid5Geometry::new(cfg.disk_count(), cfg.stripe_unit, cfg.data_region());
    let cases = [
        (3, 512 << 20, 18_629_168, 0x409b982e359d7057u64),
        (0, 256 << 20, 9_319_984, 0x408b9c469f20c259),
        (7, 1, 10_800, 0x3ff061a60d4562e1),
    ];
    for (failed, bytes, micros, energy_bits) in cases {
        let got = simulate_raid5_rebuild(&cfg, &geo, failed, bytes);
        let want = Raid5RebuildReport {
            duration: Duration::from_micros(micros),
            energy_j: f64::from_bits(energy_bits),
            sources: 7,
            bytes_rebuilt: bytes,
        };
        assert_eq!(got, want, "failed disk {failed}, {bytes} bytes");
        assert_eq!(got.energy_j.to_bits(), energy_bits);
    }
}
