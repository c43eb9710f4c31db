//! Property tests of the master invariant: after any workload drains,
//! mirrors are consistent and logging space is fully reclaimed — for
//! every scheme, across randomized workload shapes.

use proptest::prelude::*;
use rolo::core::{run_trace_observed, Scheme, SimConfig};
use rolo::obs::NullSink;
use rolo::sim::Duration;
use rolo::trace::{Burstiness, SizeDist, SyntheticConfig};

fn workload(iops: f64, write_ratio: f64, req_kib: u64, seq: f64, bursty: bool) -> SyntheticConfig {
    SyntheticConfig {
        iops,
        write_ratio,
        read_size: SizeDist::Fixed(req_kib * 1024),
        write_size: SizeDist::Fixed(req_kib * 1024),
        sequential_fraction: seq,
        write_footprint: 512 << 20,
        read_footprint: 1 << 30,
        read_hot_fraction: 0.7,
        hot_set_bytes: 4 << 20,
        burstiness: if bursty {
            Burstiness::Bursty {
                on_fraction: 0.2,
                mean_on_secs: 10.0,
            }
        } else {
            Burstiness::Smooth
        },
        batch_mean: 1.0,
        align: 4096,
    }
}

fn check(scheme: Scheme, wl: &SyntheticConfig, seed: u64) -> Result<(), TestCaseError> {
    let mut cfg = SimConfig::paper_default(scheme, 3);
    cfg.logger_region = 32 << 20;
    cfg.graid_log_capacity = 48 << 20;
    let dur = Duration::from_secs(120);
    let report = rolo::core::run_scheme(&cfg, wl.generator(dur, seed), dur);
    prop_assert!(
        report.consistency.is_ok(),
        "{scheme}: {:?}",
        report.consistency
    );
    prop_assert!(report.drained_at >= report.trace_duration);
    // Response stats cover exactly the user requests.
    prop_assert_eq!(
        report.responses.count(),
        report.read_responses.count() + report.write_responses.count()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 0,
    })]

    #[test]
    fn raid10_always_consistent(
        iops in 5.0f64..150.0,
        wr in 0.1f64..1.0,
        kib in prop::sample::select(vec![4u64, 16, 64, 256]),
        seq in 0.0f64..1.0,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        check(Scheme::Raid10, &workload(iops, wr, kib, seq, bursty), seed)?;
    }

    #[test]
    fn graid_always_consistent(
        iops in 5.0f64..150.0,
        wr in 0.1f64..1.0,
        kib in prop::sample::select(vec![4u64, 16, 64, 256]),
        seq in 0.0f64..1.0,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        check(Scheme::Graid, &workload(iops, wr, kib, seq, bursty), seed)?;
    }

    #[test]
    fn rolo_p_always_consistent(
        iops in 5.0f64..150.0,
        wr in 0.1f64..1.0,
        kib in prop::sample::select(vec![4u64, 16, 64, 256]),
        seq in 0.0f64..1.0,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        check(Scheme::RoloP, &workload(iops, wr, kib, seq, bursty), seed)?;
    }

    #[test]
    fn rolo_r_always_consistent(
        iops in 5.0f64..150.0,
        wr in 0.1f64..1.0,
        kib in prop::sample::select(vec![4u64, 16, 64, 256]),
        seq in 0.0f64..1.0,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        check(Scheme::RoloR, &workload(iops, wr, kib, seq, bursty), seed)?;
    }

    #[test]
    fn rolo_e_always_consistent(
        iops in 5.0f64..150.0,
        wr in 0.1f64..1.0,
        kib in prop::sample::select(vec![4u64, 16, 64, 256]),
        seq in 0.0f64..1.0,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        check(Scheme::RoloE, &workload(iops, wr, kib, seq, bursty), seed)?;
    }
}

mod parity {
    use super::*;
    use rolo_parity::{Raid5Geometry, Raid5Policy, Rolo5Policy};

    fn parity_check(nvram: bool, wl: &SyntheticConfig, seed: u64) -> Result<(), TestCaseError> {
        let mut cfg = SimConfig::paper_default(Scheme::Raid10, 3);
        cfg.logger_region = 32 << 20;
        let geo = Raid5Geometry::new(cfg.disk_count(), cfg.stripe_unit, cfg.data_region());
        let dur = Duration::from_secs(120);
        let mut p = Rolo5Policy::new(
            geo.clone(),
            cfg.data_region(),
            cfg.logger_region,
            0.02,
            64 * 1024,
        );
        if nvram {
            p.enable_nvram(1 << 20);
        }
        let report = run_trace_observed(
            &cfg,
            wl.generator(dur, seed),
            p,
            dur,
            Box::new(NullSink),
            false,
        )
        .0;
        prop_assert!(
            report.consistency.is_ok(),
            "rolo5: {:?}",
            report.consistency
        );
        let base = run_trace_observed(
            &cfg,
            wl.generator(dur, seed),
            Raid5Policy::new(geo),
            dur,
            Box::new(NullSink),
            false,
        )
        .0;
        prop_assert!(base.consistency.is_ok(), "raid5: {:?}", base.consistency);
        prop_assert_eq!(base.user_requests, report.user_requests);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 10,
            max_shrink_iters: 0,
        })]

        #[test]
        fn rolo5_and_raid5_always_consistent(
            iops in 5.0f64..200.0,
            wr in 0.1f64..1.0,
            kib in prop::sample::select(vec![4u64, 16, 64]),
            nvram in any::<bool>(),
            seed in 0u64..1000,
        ) {
            parity_check(nvram, &workload(iops, wr, kib, 0.3, false), seed)?;
        }
    }
}
