//! Replays one scheme/trace combination with tracing on and dumps the
//! recorded event stream as JSONL, plus a per-disk power-state residency
//! table and per-kind event counts (DESIGN.md §9).
//!
//! ```text
//! trace_dump [scheme] [trace] [hours] [--seed S] [--pairs N]
//!            [--out PATH] [--check]
//! ```
//!
//! * `scheme` — raid10 | graid | rolo-p | rolo-r | rolo-e (default rolo-p)
//! * `trace`  — a Table III profile name (default src2_2)
//! * `hours`  — simulated window (default 1)
//! * `--out`  — JSONL output path (default `results/trace_dump.jsonl`)
//! * `--scrub` — shrink the disks, enable the background scrub and
//!   latent-error injection (DESIGN.md §11) so scrub events appear in
//!   the stream.
//! * `--slo` — print the scheme's SLO burn/breach summary (per
//!   objective: warnings, breaches, first firing windows, peak burn)
//!   from the run's `SloBurnWarning`/`SloBreach` events (DESIGN.md
//!   §12).
//! * `--check` — re-parse every emitted line with the vendored JSON
//!   parser and validate that events touching the same disk carry
//!   non-decreasing timestamps; exit non-zero on any malformed line or
//!   time-travel (the CI guard). With `--scrub` it additionally checks
//!   the scrub lifecycle: per disk, every pass opens with `ScrubStart`,
//!   repairs land only inside an open pass, `ScrubComplete` closes the
//!   pass it opened, and no scrub event ever touches a disk whose
//!   tracked power state is spun down. It always checks the SLO alert
//!   lifecycle — within one telemetry window a `SloBreach` must be
//!   preceded by that objective's `SloBurnWarning` — and with `--slo`
//!   on RoLo-E (the scheme the pipeline exists to flag) it fails if
//!   the run produced no SLO events at all (vacuous check).

use rolo_core::{run_scheme_observed, Scheme, SimConfig};
use rolo_obs::{RingSink, TracedEvent};
use rolo_sim::Duration;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;

/// Ring capacity: large enough to hold every event of a multi-hour run
/// of any scheme; overflow is reported, not silent.
const RING_CAPACITY: usize = 2_000_000;

struct Args {
    scheme: Scheme,
    trace: String,
    hours: f64,
    seed: u64,
    pairs: usize,
    out: Option<String>,
    check: bool,
    scrub: bool,
    slo: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        scheme: Scheme::RoloP,
        trace: "src2_2".to_owned(),
        hours: 1.0,
        seed: 1,
        pairs: 4,
        out: None,
        check: false,
        scrub: false,
        slo: false,
    };
    let mut positional = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--seed" => args.seed = val("--seed").parse().expect("seed"),
            "--pairs" => args.pairs = val("--pairs").parse().expect("pairs"),
            "--out" => args.out = Some(val("--out")),
            "--check" => args.check = true,
            "--scrub" => args.scrub = true,
            "--slo" => args.slo = true,
            "--help" | "-h" => {
                eprintln!("see the module docs at the top of trace_dump.rs");
                std::process::exit(0);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => {
                match positional {
                    0 => {
                        args.scheme = match other {
                            "raid10" => Scheme::Raid10,
                            "graid" => Scheme::Graid,
                            "rolo-p" => Scheme::RoloP,
                            "rolo-r" => Scheme::RoloR,
                            "rolo-e" => Scheme::RoloE,
                            _ => {
                                eprintln!("unknown scheme {other}");
                                std::process::exit(2);
                            }
                        }
                    }
                    1 => args.trace = other.to_owned(),
                    2 => args.hours = other.parse().expect("hours"),
                    _ => {
                        eprintln!("too many positional arguments");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
        }
    }
    args
}

/// Accumulates per-disk residency in each power state from the
/// `DiskInit`/`DiskState` events of a trace.
#[derive(Default)]
struct Residency {
    /// disk → (current state, since-micros).
    current: BTreeMap<usize, (String, u64)>,
    /// (disk, state) → accumulated micros.
    acc: BTreeMap<(usize, String), u64>,
}

impl Residency {
    fn observe(&mut self, ev: &TracedEvent) {
        use rolo_obs::SimEvent;
        let at = ev.at.as_micros();
        match &ev.event {
            SimEvent::DiskInit { disk, state } => {
                self.current.insert(*disk, (format!("{state:?}"), at));
            }
            SimEvent::DiskState { disk, to, .. } => {
                if let Some((state, since)) = self.current.remove(disk) {
                    *self.acc.entry((*disk, state)).or_default() += at - since;
                }
                self.current.insert(*disk, (format!("{to:?}"), at));
            }
            _ => {}
        }
    }

    fn finish(&mut self, end_micros: u64) {
        for (disk, (state, since)) in std::mem::take(&mut self.current) {
            *self.acc.entry((disk, state)).or_default() += end_micros.saturating_sub(since);
        }
    }

    fn print(&self) {
        const STATES: [&str; 5] = ["Active", "Idle", "Standby", "SpinningUp", "SpinningDown"];
        println!("\nper-disk state residency (seconds):");
        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "disk", "active", "idle", "standby", "spin-up", "spin-down"
        );
        let disks: Vec<usize> = {
            let mut d: Vec<usize> = self.acc.keys().map(|&(disk, _)| disk).collect();
            d.dedup();
            d
        };
        for disk in disks {
            let secs = |state: &str| {
                self.acc
                    .get(&(disk, state.to_owned()))
                    .copied()
                    .unwrap_or(0) as f64
                    / 1e6
            };
            print!("{disk:>5}");
            for s in STATES {
                print!(" {:>12.1}", secs(s));
            }
            println!();
        }
    }
}

fn main() {
    let args = parse_args();
    let mut cfg = SimConfig::paper_default(args.scheme, args.pairs);
    cfg.seed = args.seed;
    if args.scrub {
        // Shrunk disks so full scrub passes complete inside the window,
        // plus latent-error accrual for the scrub to find.
        cfg.disk.capacity_bytes = 256 << 20;
        cfg.logger_region = 32 << 20;
        cfg.graid_log_capacity = 64 << 20;
        cfg.scrub_enabled = true;
        cfg.faults.lse_rate_active = 0.005;
        cfg.faults.lse_rate_standby = 0.02;
    }
    let profile = rolo_trace::profiles::by_name(&args.trace).unwrap_or_else(|| {
        eprintln!("unknown trace profile {}", args.trace);
        std::process::exit(2);
    });
    let dur = Duration::from_secs((args.hours * 3600.0) as u64);
    let records = profile.generator(dur, cfg.seed).collect::<Vec<_>>();

    let (report, obs) = run_scheme_observed(
        &cfg,
        records,
        dur,
        Box::new(RingSink::new(RING_CAPACITY)),
        false,
    );
    let mut sink = obs.sink;
    let dropped = sink.dropped();
    let events = sink.drain();
    if dropped > 0 {
        eprintln!(
            "warning: ring overflowed, {dropped} oldest events overwritten \
             (capacity {RING_CAPACITY})"
        );
    }

    // JSONL dump: one TracedEvent object per line.
    let path = args.out.clone().unwrap_or_else(|| {
        let dir = rolo_bench::results_dir();
        let _ = std::fs::create_dir_all(&dir);
        dir.join("trace_dump.jsonl").to_string_lossy().into_owned()
    });
    let mut lines = Vec::with_capacity(events.len());
    for ev in &events {
        lines.push(Serialize::to_value(ev).to_string());
    }
    let mut file = std::fs::File::create(&path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    for line in &lines {
        writeln!(file, "{line}").expect("write JSONL line");
    }
    drop(file);
    println!(
        "{} events ({} dropped) written to {path}",
        events.len(),
        dropped
    );

    // Per-kind counts and the residency table.
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut residency = Residency::default();
    let mut end = 0;
    for ev in &events {
        *kinds.entry(ev.event.kind_name()).or_default() += 1;
        residency.observe(ev);
        end = end.max(ev.at.as_micros());
    }
    println!("\nevent counts by kind:");
    for (kind, n) in &kinds {
        println!("{kind:>20} {n:>10}");
    }
    residency.finish(end);
    residency.print();

    // --slo: per-objective burn/breach summary from the event stream
    // (DESIGN.md §12). Burn rates travel in the events as x100 fixed
    // point, so the peak column is exact, not re-derived.
    if args.slo {
        use rolo_obs::SimEvent;
        #[derive(Default)]
        struct SloTally {
            warnings: u64,
            breaches: u64,
            first_warn: Option<u64>,
            first_breach: Option<u64>,
            peak_burn_x100: u64,
        }
        let mut tallies: BTreeMap<String, SloTally> = BTreeMap::new();
        for ev in &events {
            match &ev.event {
                SimEvent::SloBurnWarning {
                    slo,
                    window,
                    burn_short_x100,
                    ..
                } => {
                    let t = tallies.entry(slo.clone()).or_default();
                    t.warnings += 1;
                    t.first_warn.get_or_insert(*window);
                    t.peak_burn_x100 = t.peak_burn_x100.max(*burn_short_x100);
                }
                SimEvent::SloBreach { slo, window, .. } => {
                    let t = tallies.entry(slo.clone()).or_default();
                    t.breaches += 1;
                    t.first_breach.get_or_insert(*window);
                }
                _ => {}
            }
        }
        println!("\nSLO burn/breach summary ({}):", report.scheme);
        if tallies.is_empty() {
            println!("  no SLO events: every objective stayed within budget");
        } else {
            println!(
                "{:>16} {:>9} {:>9} {:>11} {:>13} {:>10}",
                "slo", "warnings", "breaches", "first-warn", "first-breach", "peak-burn"
            );
            let fmt_w = |w: Option<u64>| w.map_or("-".to_owned(), |w| format!("w{w}"));
            for (slo, t) in &tallies {
                println!(
                    "{:>16} {:>9} {:>9} {:>11} {:>13} {:>9.2}x",
                    slo,
                    t.warnings,
                    t.breaches,
                    fmt_w(t.first_warn),
                    fmt_w(t.first_breach),
                    t.peak_burn_x100 as f64 / 100.0
                );
            }
        }
    }

    println!(
        "\nscheme {} | {} requests | mean response {:.3} ms | {}",
        report.scheme,
        report.user_requests,
        report.mean_response_ms(),
        report.profile.summary()
    );

    // --check: every line must round-trip through the strict JSON parser.
    if args.check {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot re-read {path}: {e}");
            std::process::exit(1);
        });
        for (i, line) in text.lines().enumerate() {
            if let Err(e) = serde_json::from_str(line) {
                eprintln!("malformed JSONL at {path}:{}: {e}", i + 1);
                std::process::exit(1);
            }
        }
        // Per-disk causality: the ring preserves emission order, so the
        // events touching any one disk must carry non-decreasing
        // timestamps — a violation means an event was stamped with a
        // stale clock (or the ring reordered), either of which breaks
        // every downstream residency/latency computation.
        let mut last_at: BTreeMap<usize, u64> = BTreeMap::new();
        let mut violations = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let Some(disk) = ev.event.disk() else {
                continue;
            };
            let at = ev.at.as_micros();
            if let Some(&prev) = last_at.get(&disk) {
                if at < prev {
                    violations += 1;
                    eprintln!(
                        "disk {disk} time-travel at event {i}: {} < {} ({})",
                        at,
                        prev,
                        ev.event.kind_name()
                    );
                }
            }
            last_at.insert(disk, at);
        }
        if violations > 0 {
            eprintln!("check: {violations} per-disk timestamp violations");
            std::process::exit(1);
        }
        // Segment lifecycle: sealing, compacting or archiving a segment
        // the stream never allocated (or retiring a frame no archive
        // produced) means the journal emitted events out of lifecycle
        // order — the DESIGN.md §10 state machine was violated.
        use rolo_obs::SimEvent;
        let mut allocated: BTreeMap<usize, std::collections::BTreeSet<u64>> = BTreeMap::new();
        let mut archived_frames: BTreeMap<usize, std::collections::BTreeSet<u64>> = BTreeMap::new();
        let mut lifecycle_violations = 0u64;
        fn require_alloc(
            allocated: &BTreeMap<usize, std::collections::BTreeSet<u64>>,
            i: usize,
            disk: usize,
            segment: u64,
            what: &str,
            n: &mut u64,
        ) {
            if !allocated.get(&disk).is_some_and(|s| s.contains(&segment)) {
                *n += 1;
                eprintln!(
                    "event {i}: {what} references never-allocated segment \
                     {segment} on disk {disk}"
                );
            }
        }
        for (i, ev) in events.iter().enumerate() {
            match &ev.event {
                SimEvent::SegmentAllocated { disk, segment } => {
                    allocated.entry(*disk).or_default().insert(*segment);
                }
                SimEvent::SegmentSealed { disk, segment, .. } => {
                    require_alloc(
                        &allocated,
                        i,
                        *disk,
                        *segment,
                        "SegmentSealed",
                        &mut lifecycle_violations,
                    );
                }
                SimEvent::SegmentCompacted { disk, segment, .. } => {
                    require_alloc(
                        &allocated,
                        i,
                        *disk,
                        *segment,
                        "SegmentCompacted",
                        &mut lifecycle_violations,
                    );
                }
                SimEvent::SegmentArchived {
                    disk,
                    segment,
                    frame,
                    ..
                } => {
                    require_alloc(
                        &allocated,
                        i,
                        *disk,
                        *segment,
                        "SegmentArchived",
                        &mut lifecycle_violations,
                    );
                    archived_frames.entry(*disk).or_default().insert(*frame);
                }
                SimEvent::ArchiveFrameRetired { disk, frame }
                    if !archived_frames.get(disk).is_some_and(|s| s.contains(frame)) =>
                {
                    lifecycle_violations += 1;
                    eprintln!(
                        "event {i}: ArchiveFrameRetired references never-archived \
                         frame {frame} on disk {disk}"
                    );
                }
                _ => {}
            }
        }
        if lifecycle_violations > 0 {
            eprintln!("check: {lifecycle_violations} segment-lifecycle violations");
            std::process::exit(1);
        }
        // Scrub lifecycle (DESIGN.md §11): per disk, a pass opens with
        // ScrubStart(pass), repairs land only while a pass is open, and
        // ScrubComplete closes exactly the pass that opened. The scrub
        // is power-aware, so no scrub event may touch a disk whose
        // tracked power state is spun down (Standby; for the issue-time
        // ScrubStart, SpinningDown as well).
        let mut power: BTreeMap<usize, String> = BTreeMap::new();
        let mut open_pass: BTreeMap<usize, u64> = BTreeMap::new();
        let mut scrub_violations = 0u64;
        let mut scrub_events = 0u64;
        let mut complain = |i: usize, msg: String| {
            scrub_violations += 1;
            eprintln!("event {i}: {msg}");
        };
        for (i, ev) in events.iter().enumerate() {
            match &ev.event {
                SimEvent::DiskInit { disk, state } => {
                    power.insert(*disk, format!("{state:?}"));
                }
                SimEvent::DiskState { disk, to, .. } => {
                    power.insert(*disk, format!("{to:?}"));
                }
                SimEvent::ScrubStart { disk, pass } => {
                    scrub_events += 1;
                    let state = power.get(disk).map(String::as_str).unwrap_or("?");
                    if state == "Standby" || state == "SpinningDown" {
                        complain(i, format!("ScrubStart on disk {disk} in state {state}"));
                    }
                    if let Some(open) = open_pass.insert(*disk, *pass) {
                        complain(
                            i,
                            format!("ScrubStart pass {pass} on disk {disk} while pass {open} open"),
                        );
                    }
                }
                SimEvent::ScrubRepair { disk, .. } => {
                    scrub_events += 1;
                    if power.get(disk).map(String::as_str) == Some("Standby") {
                        complain(i, format!("ScrubRepair on spun-down disk {disk}"));
                    }
                    if !open_pass.contains_key(disk) {
                        complain(i, format!("ScrubRepair on disk {disk} with no pass open"));
                    }
                }
                SimEvent::ScrubComplete { disk, pass, .. } => {
                    scrub_events += 1;
                    if power.get(disk).map(String::as_str) == Some("Standby") {
                        complain(i, format!("ScrubComplete on spun-down disk {disk}"));
                    }
                    match open_pass.remove(disk) {
                        Some(open) if open == *pass => {}
                        Some(open) => complain(
                            i,
                            format!(
                                "ScrubComplete pass {pass} on disk {disk} closes open pass {open}"
                            ),
                        ),
                        None => complain(
                            i,
                            format!("ScrubComplete pass {pass} on disk {disk} with no pass open"),
                        ),
                    }
                }
                _ => {}
            }
        }
        if scrub_violations > 0 {
            eprintln!("check: {scrub_violations} scrub-lifecycle violations");
            std::process::exit(1);
        }
        if args.scrub && scrub_events == 0 {
            eprintln!("check: --scrub run produced no scrub events (vacuous check)");
            std::process::exit(1);
        }
        // SLO alert lifecycle (DESIGN.md §12): the monitor's breach
        // condition subsumes its warning condition, so within any one
        // telemetry window a SloBreach for an objective must appear
        // after that objective's SloBurnWarning in the stream.
        let mut warned: std::collections::BTreeSet<(String, u64)> = Default::default();
        let mut slo_events = 0u64;
        let mut slo_violations = 0u64;
        for (i, ev) in events.iter().enumerate() {
            match &ev.event {
                SimEvent::SloBurnWarning { slo, window, .. } => {
                    slo_events += 1;
                    warned.insert((slo.clone(), *window));
                }
                SimEvent::SloBreach { slo, window, .. } => {
                    slo_events += 1;
                    if !warned.contains(&(slo.clone(), *window)) {
                        slo_violations += 1;
                        eprintln!(
                            "event {i}: SloBreach({slo}, w{window}) with no \
                             preceding warning in its window"
                        );
                    }
                }
                _ => {}
            }
        }
        if slo_violations > 0 {
            eprintln!("check: {slo_violations} SLO-lifecycle violations");
            std::process::exit(1);
        }
        // The pipeline exists to flag RoLo-E's spin-up tail: a --slo
        // check run on that scheme that raises no alert at all proves
        // nothing, so fail it as vacuous (mirrors the --scrub guard).
        if args.slo && matches!(args.scheme, Scheme::RoloE) && slo_events == 0 {
            eprintln!("check: --slo run on rolo-e produced no SLO events (vacuous check)");
            std::process::exit(1);
        }
        println!(
            "check: {} JSONL lines parse cleanly, per-disk timestamps monotone, \
             segment lifecycle ordered, scrub lifecycle ordered ({} scrub events), \
             SLO lifecycle ordered ({} SLO events)",
            text.lines().count(),
            scrub_events,
            slo_events
        );
    }
}
