//! Rebuild simulation for disk failures (§III-C, quantified).
//!
//! [`recovery_plan`](crate::recovery::recovery_plan) says *which* disks
//! participate in a recovery; this module simulates the rebuild itself on
//! the disk substrate to quantify what the plan costs: the spin-up delay
//! of awakened disks, the copy time of regenerating the failed disk's
//! contents onto a replacement, and the energy consumed — per scheme and
//! failed role.
//!
//! The rebuild engine is policy-independent: it takes a recovery plan,
//! builds the disks in their pre-failure power states, spins up the
//! `wake` set, then streams the data region from the source disks to the
//! replacement in large sequential chunks (round-robin across sources
//! when more than one holds needed content, as when a RoLo primary's
//! recent writes live across several past loggers).
//!
//! This module is the *offline* engine (isolated disks, no foreground
//! traffic). [`stream_rebuild`] is its one chunk-streaming loop, shared
//! with the RAID5 rebuild in `rolo_parity::degraded`: the two differ only
//! in the source set each chunk is read from. Rebuilds running inside a
//! live trace replay go through
//! [`SimCtx::begin_rebuild`](crate::ctx::SimCtx), where — with span
//! tracing on — each rebuild opens a `BgSpan` over its source and
//! replacement slots, and foreground legs it delays record the causal
//! link (DESIGN.md §9.1).

use crate::config::{Scheme, SimConfig};
use crate::recovery::RecoveryPlan;
use rolo_disk::{Disk, DiskRequest, DiskWake, IoKind, PowerState, Priority};
use rolo_sim::{CalendarQueue, Duration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Outcome of one simulated rebuild.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebuildReport {
    /// Scheme the plan came from.
    pub scheme: String,
    /// Total wall time from failure to fully rebuilt replacement.
    pub duration: Duration,
    /// Energy consumed by every participating disk over that window (J).
    pub energy_j: f64,
    /// Disks that had to spin up.
    pub disks_awakened: usize,
    /// Disks used in total (including already-active ones).
    pub disks_involved: usize,
    /// Bytes copied onto the replacement.
    pub bytes_rebuilt: u64,
}

/// Chunk size used for rebuild streaming.
pub const REBUILD_CHUNK: u64 = 1 << 20;

/// What one [`stream_rebuild`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedRebuild {
    /// Wall time from the first read to the stop.
    pub duration: Duration,
    /// Energy consumed by every disk over that window (J).
    pub energy_j: f64,
    /// Bytes written to the replacement.
    pub bytes_rebuilt: u64,
}

/// Streams `total` bytes onto `disks[replacement]`, one chunk at a time.
///
/// Chunk `k` is read from every disk in `sources(k)` (indices into
/// `disks`); once all of those reads have returned, the chunk is written
/// to the replacement, and its completion issues chunk `k + 1`. The first
/// chunk is `first_chunk` bytes, every later one [`REBUILD_CHUNK`]
/// clipped to what is left. The stream stops at the first delivered event
/// after which `total` bytes have landed — so a `total` of zero stops at
/// the very first event — or when no event is left. Disks start in
/// whatever power state the caller built them in; a standby source spins
/// up on its first read, and that delay is part of the rebuild.
pub fn stream_rebuild(
    mut disks: Vec<Disk>,
    replacement: usize,
    sources: impl Fn(u64) -> Range<usize>,
    first_chunk: u64,
    total: u64,
) -> StreamedRebuild {
    fn schedule(queue: &mut CalendarQueue<(usize, DiskWake)>, idx: usize, wake: Option<DiskWake>) {
        if let Some(w) = wake {
            queue.schedule(w.due(), (idx, w));
        }
    }
    fn submit(
        disks: &mut [Disk],
        queue: &mut CalendarQueue<(usize, DiskWake)>,
        idx: usize,
        kind: IoKind,
        offset: u64,
        len: u64,
        now: SimTime,
    ) {
        let req = DiskRequest::new(0, kind, offset, len, Priority::Foreground);
        let wake = disks[idx].submit(req, now);
        schedule(queue, idx, wake);
    }

    // Reads chunk `chunk` (`len` bytes at `copied`) from all of its
    // sources; returns how many reads are now outstanding.
    let read_chunk = |disks: &mut [Disk], queue: &mut _, chunk, copied, len, now| {
        let srcs = sources(chunk);
        for src in srcs.clone() {
            submit(disks, queue, src, IoKind::Read, copied, len, now);
        }
        srcs.len()
    };

    let mut queue = CalendarQueue::new();
    let mut chunk = 0u64;
    let mut len = first_chunk;
    let mut copied = 0u64;
    let mut reads_outstanding =
        read_chunk(&mut disks, &mut queue, chunk, copied, len, SimTime::ZERO);
    let mut now = SimTime::ZERO;
    while let Some(ev) = queue.pop() {
        now = ev.time;
        let (idx, wake) = ev.payload;
        let disk = &mut disks[idx];
        match wake {
            DiskWake::Io(_) => {
                let out = disk.on_io_complete(now);
                schedule(&mut queue, idx, out.next);
                if idx == replacement {
                    // Chunk landed on the replacement: issue the next one.
                    copied += out.completed.bytes;
                    if copied < total {
                        chunk += 1;
                        len = REBUILD_CHUNK.min(total - copied);
                        reads_outstanding =
                            read_chunk(&mut disks, &mut queue, chunk, copied, len, now);
                    }
                } else {
                    reads_outstanding -= 1;
                    if reads_outstanding == 0 {
                        // Every source delivered: write the chunk.
                        submit(
                            &mut disks,
                            &mut queue,
                            replacement,
                            IoKind::Write,
                            copied,
                            len,
                            now,
                        );
                    }
                }
            }
            DiskWake::SpinUp(_) => schedule(&mut queue, idx, disk.on_spin_up_complete(now)),
            DiskWake::SpinDown(_) => schedule(&mut queue, idx, disk.on_spin_down_complete(now)),
            DiskWake::BgRetry(_) => schedule(&mut queue, idx, disk.on_bg_retry(now)),
        }
        if copied >= total {
            break;
        }
    }

    StreamedRebuild {
        duration: now.since(SimTime::ZERO),
        energy_j: disks
            .iter()
            .map(|d| d.energy_report(now).total_joules)
            .sum(),
        bytes_rebuilt: copied,
    }
}

/// Simulates rebuilding a failed disk according to `plan`.
///
/// `standby` marks which disks were spun down at failure time (the
/// scheme's steady state). The replacement disk starts spun up (a fresh
/// drive). Source reads round-robin across `plan.wake ∪ plan.silent`;
/// each chunk is read from a source and written to the replacement.
///
/// # Panics
///
/// Panics if the plan has no source disks.
pub fn simulate_rebuild(
    cfg: &SimConfig,
    plan: &RecoveryPlan,
    standby: &[bool],
    rebuild_bytes: u64,
) -> RebuildReport {
    let sources: Vec<usize> = plan
        .wake
        .iter()
        .chain(plan.silent.iter())
        .copied()
        .collect();
    assert!(!sources.is_empty(), "recovery plan has no sources");
    let rng = SimRng::seed_from(cfg.seed ^ 0xfa11);

    // Participating disks: sources + the replacement (modelled as a fresh
    // disk reusing the failed disk's id slot).
    let mut disks: Vec<Disk> = Vec::new();
    for &d in &sources {
        let state = if standby.get(d).copied().unwrap_or(false) {
            PowerState::Standby
        } else {
            PowerState::Idle
        };
        disks.push(Disk::with_initial_state(
            d,
            cfg.disk.clone(),
            rng.fork(&format!("rebuild-src-{d}")),
            state,
        ));
    }
    let replacement = disks.len();
    disks.push(Disk::with_initial_state(
        plan.failed,
        cfg.disk.clone(),
        rng.fork("rebuild-replacement"),
        PowerState::Idle,
    ));

    // The first chunk reads at least one byte from the first source
    // (spinning it up if needed — the spin-up cost is part of the §III-C
    // story), even for an empty rebuild.
    let n = sources.len() as u64;
    let streamed = stream_rebuild(
        disks,
        replacement,
        |chunk| {
            let src = (chunk % n) as usize;
            src..src + 1
        },
        REBUILD_CHUNK.min(rebuild_bytes.max(1)),
        rebuild_bytes,
    );
    RebuildReport {
        scheme: String::new(),
        duration: streamed.duration,
        energy_j: streamed.energy_j,
        disks_awakened: plan.wake.len(),
        disks_involved: plan.disks_involved(),
        bytes_rebuilt: streamed.bytes_rebuilt,
    }
}

/// Convenience: plan + rebuild for a primary-disk failure under `scheme`
/// with `recent_loggers` holding log copies (RoLo-P/R only).
pub fn rebuild_primary_failure(
    cfg: &SimConfig,
    scheme: Scheme,
    recent_loggers: &[usize],
) -> RebuildReport {
    let geometry = cfg.geometry().expect("valid geometry");
    // Default the on-duty logger to a pair other than the failed disk's,
    // so the failure exercises the representative off-duty path.
    let logger_pair = recent_loggers.last().copied().unwrap_or(1 % cfg.pairs);
    let plan = crate::recovery::recovery_plan(scheme, &geometry, 0, logger_pair, recent_loggers);
    // Steady-state standby sets per scheme.
    let standby: Vec<bool> = (0..cfg.disk_count())
        .map(|d| match scheme {
            Scheme::Raid10 => false,
            Scheme::Graid => d >= cfg.pairs && d < 2 * cfg.pairs,
            Scheme::RoloP | Scheme::RoloR => {
                d >= cfg.pairs && d < 2 * cfg.pairs && d != cfg.pairs + logger_pair
            }
            Scheme::RoloE => d != logger_pair && d != cfg.pairs + logger_pair,
        })
        .collect();
    let mut report = simulate_rebuild(cfg, &plan, &standby, cfg.data_region());
    report.scheme = scheme.to_string();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scheme: Scheme) -> SimConfig {
        let mut c = SimConfig::paper_default(scheme, 10);
        // Small data region keeps the rebuild quick in tests.
        c.logger_region = c.disk.capacity_bytes - (1 << 30);
        c
    }

    #[test]
    fn raid10_rebuild_needs_no_spinups() {
        let c = cfg(Scheme::Raid10);
        let r = rebuild_primary_failure(&c, Scheme::Raid10, &[]);
        assert_eq!(r.disks_awakened, 0);
        assert_eq!(r.bytes_rebuilt, c.data_region());
        // 1 GiB at ~55 MB/s with alternating read/write: tens of seconds.
        assert!(r.duration.as_secs_f64() > 10.0 && r.duration.as_secs_f64() < 300.0);
    }

    #[test]
    fn rolo_p_rebuild_wakes_fewer_than_graid() {
        let c = cfg(Scheme::RoloP);
        let rolo = rebuild_primary_failure(&c, Scheme::RoloP, &[3, 4, 5]);
        let graid = rebuild_primary_failure(&cfg(Scheme::Graid), Scheme::Graid, &[]);
        assert!(rolo.disks_awakened < graid.disks_awakened);
        assert!(
            rolo.energy_j < graid.energy_j,
            "RoLo {:.0} J !< GRAID {:.0} J",
            rolo.energy_j,
            graid.energy_j
        );
    }

    #[test]
    fn spinup_latency_shows_in_duration() {
        // A rebuild whose sources are all standby must include the 10.9 s
        // spin-up in its wall time.
        let c = cfg(Scheme::RoloE);
        let r = rebuild_primary_failure(&c, Scheme::RoloE, &[5]);
        assert!(r.duration.as_secs_f64() > 10.9);
    }

    #[test]
    fn copies_every_byte_exactly_once() {
        let mut c = cfg(Scheme::Raid10);
        c.logger_region = c.disk.capacity_bytes - (64 << 20);
        let r = rebuild_primary_failure(&c, Scheme::Raid10, &[]);
        assert_eq!(r.bytes_rebuilt, c.data_region());
    }
}
