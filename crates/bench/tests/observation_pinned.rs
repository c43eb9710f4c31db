//! Pinned observation streams. The golden engine matrix and
//! `journal_pinned` digest only `deterministic_json`, and the
//! determinism suite only checks run-against-run repeatability, so a
//! change to span ids, alert order or exemplar content would pass both.
//! This suite pins every stream a forensics run hands back.
//!
//! Each cell runs with `rca_enabled` (which forces span recording on)
//! and a [`RingSink`] large enough to drop nothing, then pins one
//! FNV-1a digest per stream: the trace events, the request spans, the
//! background spans, the telemetry snapshot, the SLO alerts, the tail
//! exemplars and the RCA report. Every cell also asserts that the
//! mechanism it pins actually ran, so a change in configuration
//! defaults cannot quietly make a pin vacuous, and that every retained
//! request span and exemplar span copy holds no allocation slack.

use rolo_bench::fnv1a_hex;
use rolo_core::{run_scheme_observed, FaultPlan, RunObservations, Scheme, SimConfig, SimReport};
use rolo_obs::{BgSpanKind, RequestSpan, RingSink};
use rolo_sim::Duration;
use rolo_trace::{profiles, TraceProfile};
use serde::Serialize;

const SEED: u64 = 7;

/// Ring capacity: far above any cell's event count, so nothing drops.
const RING_CAPACITY: usize = 1 << 22;

/// One digest per observation stream, in the order the module doc
/// lists them.
#[derive(Debug, PartialEq)]
struct Digests {
    events: String,
    requests: String,
    background: String,
    telemetry: String,
    alerts: String,
    exemplars: String,
    rca: String,
}

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    fnv1a_hex(
        serde_json::to_string(value)
            .expect("serializable")
            .as_bytes(),
    )
}

/// Runs one forensics cell and returns its report, observations and
/// per-stream digests, after the checks every cell shares.
fn observe(
    mut cfg: SimConfig,
    profile: TraceProfile,
    dur: Duration,
) -> (SimReport, RunObservations, Digests) {
    cfg.seed = SEED;
    cfg.rca_enabled = true;
    let records = profile.generator(dur, SEED);
    let sink = Box::new(RingSink::new(RING_CAPACITY));
    let (report, mut obs) = run_scheme_observed(&cfg, records, dur, sink, false);
    assert_eq!(report.consistency, Ok(()), "{}", report.scheme);
    assert_eq!(
        obs.sink.dropped(),
        0,
        "{}: ring dropped events",
        report.scheme
    );
    let events = obs.sink.drain();
    assert!(!events.is_empty(), "{}: no events", report.scheme);
    let spans = obs.spans.as_ref().expect("rca forces spans on");
    spans.validate().expect("span invariants hold");
    for span in &spans.requests {
        assert_exact_capacity(span, &report.scheme);
    }
    let exemplars = obs.exemplars.as_ref().expect("rca implies exemplars");
    for ex in exemplars.windows.iter().flat_map(|w| &w.spans) {
        assert_exact_capacity(&ex.span, &report.scheme);
    }
    let rca = obs.rca.as_ref().expect("rca_enabled populates the report");
    rca.check().expect("blame conservation holds");
    let digests = Digests {
        events: json(&events),
        requests: json(&spans.requests),
        background: json(&spans.background),
        telemetry: json(obs.telemetry.as_ref().expect("telemetry on")),
        alerts: json(&obs.slo_alerts),
        exemplars: json(exemplars),
        rca: json(rca),
    };
    (report, obs, digests)
}

/// Asserts that `span`'s legs, and each leg's slices, sit at exactly
/// their length: a forensics run retains every finished span, so any
/// slack is multiplied by the request count.
fn assert_exact_capacity(span: &RequestSpan, scheme: &str) {
    assert_eq!(
        span.legs.capacity(),
        span.legs.len(),
        "{scheme}: span {} legs",
        span.id
    );
    for leg in &span.legs {
        assert_eq!(
            leg.slices.capacity(),
            leg.slices.len(),
            "{scheme}: span {} leg {} slices",
            span.id,
            leg.io
        );
    }
}

fn bg_count(obs: &RunObservations, kind: BgSpanKind) -> usize {
    obs.spans.as_ref().map_or(0, |s| {
        s.background.iter().filter(|b| b.kind == kind).count()
    })
}

fn pinned(d: [&str; 7]) -> Digests {
    let s = |i: usize| d[i].to_owned();
    Digests {
        events: s(0),
        requests: s(1),
        background: s(2),
        telemetry: s(3),
        alerts: s(4),
        exemplars: s(5),
        rca: s(6),
    }
}

/// RoLo-P on three pairs with a 4 MiB logger region for one hour (the
/// `journal_pinned` tight-logger cell): per-pair destage spans and the
/// compactor's relocation spans.
#[test]
fn rolo_p_tight_logger_streams_are_pinned() {
    let mut cfg = SimConfig::paper_default(Scheme::RoloP, 3);
    cfg.logger_region = 4 << 20;
    let dur = Duration::from_secs(3600);
    let (_, obs, got) = observe(cfg, profiles::proj_0(), dur);
    assert!(bg_count(&obs, BgSpanKind::Destage) > 0, "no destage span");
    assert!(
        bg_count(&obs, BgSpanKind::Compaction) > 0,
        "no compaction span"
    );
    assert_eq!(
        got,
        pinned([
            "d6a8b6b711f40173",
            "fc912412aa874017",
            "4e53ab868465b112",
            "4b01d42f9794871a",
            "aa784958fbb28675",
            "458b6f12b440f15c",
            "b8ef86c9966c6c93",
        ])
    );
}

/// GRAID on four pairs with a 128 MiB log and data disk 1 failing
/// half-way through the hour: the online rebuild's span runs while
/// the whole-array destage spans open and close around it.
#[test]
fn graid_rebuild_streams_are_pinned() {
    let mut cfg = SimConfig::paper_default(Scheme::Graid, 4);
    cfg.graid_log_capacity = 128 << 20;
    cfg.faults = FaultPlan::single(1, Duration::from_secs(1800));
    let dur = Duration::from_secs(3600);
    let (report, obs, got) = observe(cfg, profiles::proj_0(), dur);
    assert_eq!(
        report.faults.rebuilds_completed, 1,
        "rebuild never finished"
    );
    assert!(bg_count(&obs, BgSpanKind::Rebuild) > 0, "no rebuild span");
    assert!(bg_count(&obs, BgSpanKind::Destage) > 0, "no destage span");
    assert_eq!(
        got,
        pinned([
            "0190c87cb718dc2b",
            "657915fe46c915df",
            "46c3c558a5a7ea67",
            "490b598f39780d1f",
            "4ea8da07b5ecb5a5",
            "8dd835d24b2d91f5",
            "7748092ff0e4f272",
        ])
    );
}

/// RoLo-E on four pairs over src2_2 for one hour with `trace_dump
/// --scrub`'s setup (shrunk disks, scrub on, latent-error accrual):
/// scrub spans, and the spin-up tail that raises SLO alerts.
#[test]
fn roloe_scrub_streams_are_pinned() {
    let mut cfg = SimConfig::paper_default(Scheme::RoloE, 4);
    cfg.disk.capacity_bytes = 256 << 20;
    cfg.logger_region = 32 << 20;
    cfg.graid_log_capacity = 64 << 20;
    cfg.scrub_enabled = true;
    cfg.faults.lse_rate_active = 0.005;
    cfg.faults.lse_rate_standby = 0.02;
    let dur = Duration::from_secs(3600);
    let (_, obs, got) = observe(cfg, profiles::src2_2(), dur);
    assert!(bg_count(&obs, BgSpanKind::Scrub) > 0, "no scrub span");
    assert!(!obs.slo_alerts.is_empty(), "no SLO alert raised");
    assert_eq!(
        got,
        pinned([
            "958b28c3a15379fd",
            "88d4a54ce4d10a84",
            "07b8ac9ab1d7481d",
            "fe2de93628239040",
            "3dbe61b4759e7e97",
            "115f4dd2eb53b170",
            "a367e8cc9bdb942c",
        ])
    );
}

/// Every redirect-bearing scheme on four pairs with primary disk 1
/// failing half-way through one hour of hm_1 and a 0.2 % media-error
/// rate on reads: degraded reads redirected at admission and failed reads
/// re-served by the surviving partner, each a `DegradedRedirect` leg.
#[test]
fn degraded_redirect_streams_are_pinned() {
    for (scheme, want) in [
        (
            Scheme::Raid10,
            [
                "378b6d644da2559b",
                "08ddf83d4811df31",
                "3e92905be4416115",
                "6def4c40abd34a01",
                "4ea8da07b5ecb5a5",
                "3404951976c98d58",
                "7748092ff0e4f272",
            ],
        ),
        (
            Scheme::Graid,
            [
                "affb7cc7b9eebd6f",
                "c15258643f1343c7",
                "03058720a4a366ae",
                "732d3a4af273b540",
                "4ea8da07b5ecb5a5",
                "c100033c85c1d090",
                "7748092ff0e4f272",
            ],
        ),
        (
            Scheme::RoloP,
            [
                "81e42ecb4274f7a8",
                "070c89dacad37141",
                "14604851244f49c3",
                "185418661e601018",
                "6fd646300e2337ae",
                "405ce5fabd0e3141",
                "0e834adaec90107f",
            ],
        ),
        (
            Scheme::RoloE,
            [
                "54e0f3fe1e15a7e1",
                "71ef8bd0409da024",
                "bd2a9568f2a77a3c",
                "7079118318bddff9",
                "fd3b7de96af23401",
                "6444dc2986803497",
                "058040db62b2b6dd",
            ],
        ),
    ] {
        let mut cfg = SimConfig::paper_default(scheme, 4);
        cfg.logger_region = 256 << 20;
        cfg.graid_log_capacity = 128 << 20;
        cfg.faults = FaultPlan::single(1, Duration::from_secs(1800));
        cfg.faults.media_error_per_read = 0.002;
        let dur = Duration::from_secs(3600);
        let (report, _, got) = observe(cfg, profiles::hm_1(), dur);
        assert!(report.faults.reads_redirected > 0, "{scheme}: no redirect");
        assert!(report.faults.media_errors > 0, "{scheme}: no media error");
        assert_eq!(got, pinned(want), "{scheme}");
    }
}
