//! The write-ahead log protocol shared by every logging scheme
//! (DESIGN.md §10).
//!
//! GRAID, RoLo-P/R and RoLo-E all keep their logged second copies in
//! checksummed per-disk [`SegmentStore`] journals backed by a
//! controller-durable [`LogManifest`]. [`PolicyLog`] owns that state —
//! the journals, the manifest, the LSN counter, the segment size and
//! the archive TTL — and the one protocol over it: appends that commit
//! under a shared LSN when their request acks, owner-masked clears,
//! per-pair reclaims followed by the archive/retire sweep, and
//! recovery-by-replay when a journal-bearing disk dies. A scheme
//! contributes only its topology: which disks carry a journal, and
//! which owner mask each clear names.

use crate::ctx::SimCtx;
use crate::dirty::DirtyMap;
use crate::policy::PolicyStats;
use crate::segment::{clear_owned_journals, owner_bit, replay_journals, LogManifest, SegmentStore};
use rolo_disk::DiskId;
use rolo_obs::SimEvent;
use rolo_sim::Duration;
use std::collections::{BTreeMap, HashSet};

/// Default log-segment size (bytes) until the driver tunes it.
const DEFAULT_SEG_BYTES: u64 = 4 << 20;
/// Default archive-frame TTL (µs) until the driver tunes it.
const DEFAULT_ARCHIVE_TTL_US: u64 = 60_000_000;

/// Owner mask naming every journal: the clear mask of schemes whose
/// dirty maps carry no per-journal owner tags (GRAID, RoLo-E).
pub const ALL_JOURNALS: u64 = u64::MAX;

/// A journal record awaiting commit: `(mark index, journal disk, record
/// id)`. The copies of one mark commit at a shared LSN.
pub type PendingAppend = (u32, DiskId, u64);

/// What one recovery-by-replay pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Records scanned across the surviving journals.
    pub records: u64,
    /// Records among them that failed verification (torn by the crash).
    pub torn: u64,
    /// Covered pairs whose replayed map differed from the controller's.
    pub divergent_pairs: u64,
    /// Pairs lost to replay: the dead journal held a committed record
    /// above the pair's stable LSN that no survivor also holds.
    pub lost_pairs: u64,
}

/// One controller's journals, manifest and LSN sequence.
#[derive(Debug)]
pub struct PolicyLog {
    journals: BTreeMap<DiskId, SegmentStore>,
    /// Controller-durable (NVRAM) clears and per-pair stable LSNs.
    manifest: LogManifest,
    /// Commit LSN counter: assigned when a record's mark (or a clear)
    /// mutates a dirty map, so LSN order equals mutation order.
    next_lsn: u64,
    seg_bytes: u64,
    archive_ttl_us: u64,
    replays: u64,
    torn: u64,
    divergence: u64,
}

impl PolicyLog {
    /// Creates empty journals on `disks`.
    pub fn new(disks: impl IntoIterator<Item = DiskId>) -> Self {
        PolicyLog {
            journals: disks
                .into_iter()
                .map(|d| (d, SegmentStore::new(DEFAULT_SEG_BYTES)))
                .collect(),
            manifest: LogManifest::new(),
            next_lsn: 0,
            seg_bytes: DEFAULT_SEG_BYTES,
            archive_ttl_us: DEFAULT_ARCHIVE_TTL_US,
            replays: 0,
            torn: 0,
            divergence: 0,
        }
    }

    /// Tunes the journal geometry (before the run starts); resets the
    /// — still empty — journals to the new segment size.
    pub fn set_tuning(&mut self, seg_bytes: u64, archive_ttl: Duration) {
        self.seg_bytes = seg_bytes;
        self.archive_ttl_us = archive_ttl.as_micros();
        for j in self.journals.values_mut() {
            *j = SegmentStore::new(seg_bytes);
        }
    }

    /// The journals, by disk.
    pub fn stores(&self) -> &BTreeMap<DiskId, SegmentStore> {
        &self.journals
    }

    fn alloc_lsn(&mut self) -> u64 {
        self.next_lsn += 1;
        self.next_lsn
    }

    /// Appends an uncommitted record to `disk`'s journal, emitting the
    /// segment lifecycle events its allocation caused, and returns the
    /// record id.
    ///
    /// # Panics
    ///
    /// Panics if `disk` carries no journal.
    pub fn append(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        pair: usize,
        period: u64,
        lba: u64,
        len: u64,
    ) -> u64 {
        let out = self
            .journals
            .get_mut(&disk)
            .expect("journal exists")
            .append(pair, period, lba, len);
        if let Some((segment, live_bytes)) = out.sealed {
            ctx.emit(|| SimEvent::SegmentSealed {
                disk,
                segment,
                live_bytes,
            });
        }
        if let Some(segment) = out.opened {
            ctx.emit(|| SimEvent::SegmentAllocated { disk, segment });
        }
        out.rid
    }

    /// Commits every record of `appends` tagged with `mark` at one fresh
    /// LSN. Call at the instant the mark mutates the dirty map; returns
    /// the owner mask of the journals that took a copy.
    pub fn commit(&mut self, appends: &[PendingAppend], mark: usize) -> u64 {
        let lsn = self.alloc_lsn();
        let mut owners = 0;
        for &(mi, d, rid) in appends {
            if mi as usize == mark {
                if let Some(j) = self.journals.get_mut(&d) {
                    j.commit(rid, lsn);
                    owners |= owner_bit(d);
                }
            }
        }
        owners
    }

    /// Journals a dirty-map clear of `[lba, lba+len)` of `pair`: the
    /// manifest records it at a fresh LSN and every journal in `owners`
    /// drops the range from its live index. Call at the instant the
    /// in-memory clear happens.
    pub fn clear(&mut self, owners: u64, pair: usize, lba: u64, len: u64) {
        let lsn = self.alloc_lsn();
        self.manifest.clear(lsn, pair, lba, len);
        clear_owned_journals(&mut self.journals, owners, pair, lba, len);
    }

    /// Re-logs a compacted piece of `pair` on every journal of `targets`,
    /// committed at one fresh LSN, and releases it from the `source`
    /// journal (unless the source is itself a target, where the commit
    /// already re-homed it).
    #[allow(clippy::too_many_arguments)]
    pub fn relocate(
        &mut self,
        ctx: &mut SimCtx,
        source: DiskId,
        targets: &[DiskId],
        pair: usize,
        period: u64,
        lba: u64,
        len: u64,
    ) {
        let lsn = self.alloc_lsn();
        for &t in targets {
            let rid = self.append(ctx, t, pair, period, lba, len);
            self.journals
                .get_mut(&t)
                .expect("journal exists")
                .commit(rid, lsn);
        }
        let src = self.journals.get_mut(&source).expect("journal exists");
        if !targets.contains(&source) {
            src.clear_extent(pair, lba, len);
        }
        src.note_compacted(len);
    }

    /// Reclaims every pair of `pairs` — each pair's dirty map is empty,
    /// so its stable LSN advances (pruning its manifest clears) and its
    /// live extents leave every journal — then runs the archive sweep.
    pub fn reclaim(&mut self, ctx: &mut SimCtx, pairs: impl IntoIterator<Item = usize>) {
        for pair in pairs {
            let lsn = self.alloc_lsn();
            self.manifest.reclaim(lsn, pair);
            for j in self.journals.values_mut() {
                j.reclaim_pair(pair);
            }
        }
        self.sweep(ctx);
    }

    /// Archives every fully-dead sealed segment and retires expired
    /// frames across all journals.
    pub fn sweep(&mut self, ctx: &mut SimCtx) {
        let now_us = ctx.now.as_micros();
        let ttl = self.archive_ttl_us;
        for (&disk, j) in self.journals.iter_mut() {
            for segment in j.archive_ready() {
                let (frame, compressed_bytes) = j.archive(segment, now_us);
                ctx.emit(|| SimEvent::SegmentArchived {
                    disk,
                    segment,
                    frame,
                    compressed_bytes,
                });
            }
            for frame in j.retire_expired(now_us, ttl) {
                ctx.emit(|| SimEvent::ArchiveFrameRetired { disk, frame });
            }
        }
    }

    /// Recovery-by-replay after `disk` died. Returns `None`, touching
    /// nothing, if `disk` carried no journal.
    ///
    /// Otherwise scans the surviving journals, merges their committed
    /// records with the manifest's clears in LSN order, and cross-checks
    /// each reconstructed map against the controller's NVRAM map in
    /// `dirty`: an equal map is installed, an unequal one counts as
    /// divergent. A pair whose committed, unstable records rode only the
    /// dead journal is lost to replay and keeps its NVRAM map — the
    /// §III-C fallback. Mirrored commits (RoLo-R, RoLo-E) make single
    /// deaths lossless; a sole journal (GRAID's log disk) loses every
    /// unstable pair. The dead journal is then wiped: its blank
    /// replacement starts a fresh chain.
    pub fn replay_after_failure(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        dirty: &mut [DirtyMap],
    ) -> Option<ReplayCounts> {
        let dead = self.journals.get(&disk)?;
        ctx.emit(|| SimEvent::ReplayStarted { disk });
        let survivors = self.journals.iter().filter(|&(&d, _)| d != disk);
        let outcome = replay_journals(
            survivors.clone().map(|(_, j)| j),
            &self.manifest,
            dirty.len(),
        );
        let survivor_lsns: HashSet<u64> = survivors
            .flat_map(|(_, j)| j.committed_records())
            .map(|(lsn, _)| lsn)
            .collect();
        let lost: HashSet<usize> = dead
            .committed_records()
            .into_iter()
            .filter(|&(lsn, pair)| {
                lsn > self.manifest.pair_stable(pair) && !survivor_lsns.contains(&lsn)
            })
            .map(|(_, pair)| pair)
            .collect();
        let mut counts = ReplayCounts {
            records: outcome.records_scanned,
            torn: outcome.torn_records,
            divergent_pairs: 0,
            lost_pairs: lost.len() as u64,
        };
        for (pair, map) in outcome.maps.into_iter().enumerate() {
            if lost.contains(&pair) {
                continue;
            }
            if map == dirty[pair] {
                // Install the replayed map: load-bearing (the controller
                // proceeds on reconstructed state) yet behavior-identical.
                dirty[pair] = map;
            } else {
                counts.divergent_pairs += 1;
            }
        }
        self.journals
            .insert(disk, SegmentStore::new(self.seg_bytes));
        self.replays += 1;
        self.torn += counts.torn;
        self.divergence += counts.divergent_pairs;
        if counts.torn > 0 {
            ctx.emit(|| SimEvent::TornRecordDetected {
                disk,
                count: counts.torn,
            });
        }
        ctx.emit(|| SimEvent::ReplayCompleted {
            disk,
            records: counts.records,
            torn: counts.torn,
            divergent_pairs: counts.divergent_pairs,
        });
        Some(counts)
    }

    /// Folds the journals' segment counters and the replay totals into
    /// the policy's own counters.
    pub fn fold_stats(&self, mut s: PolicyStats) -> PolicyStats {
        for j in self.journals.values() {
            let js = j.stats();
            s.segments_sealed += js.sealed_segments;
            s.segments_archived += js.archived_segments;
            s.frames_retired += js.retired_frames;
            s.compacted_bytes += js.compacted_bytes;
        }
        s.log_replays += self.replays;
        s.torn_records += self.torn;
        s.replay_divergence += self.divergence;
        s
    }

    /// End-of-run check: every journal passes its invariants and, the
    /// log being fully destaged, tracks no live bytes.
    pub fn check_drained(&self) -> Result<(), String> {
        for (disk, j) in &self.journals {
            j.check_invariants()
                .map_err(|e| format!("journal {disk}: {e}"))?;
            if j.live_bytes() != 0 {
                return Err(format!(
                    "journal {disk} still tracks {} live bytes",
                    j.live_bytes()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, SimConfig};

    fn ctx() -> SimCtx {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        let standby = vec![false; cfg.disk_count()];
        SimCtx::new(&cfg, cfg.geometry().unwrap(), &standby)
    }

    /// Logs one write of `pair` on every disk of `disks` and acks it,
    /// the way a controller does: append, then commit at the mark.
    fn logged_write(
        log: &mut PolicyLog,
        ctx: &mut SimCtx,
        dirty: &mut [DirtyMap],
        disks: &[DiskId],
        (pair, lba, len): (usize, u64, u64),
    ) {
        let appends: Vec<PendingAppend> = disks
            .iter()
            .map(|&d| (0, d, log.append(ctx, d, pair, 1, lba, len)))
            .collect();
        let owners = log.commit(&appends, 0);
        dirty[pair].mark_owned(lba, len, owners);
    }

    #[test]
    fn sole_journal_death_loses_every_unstable_pair() {
        // GRAID: one journal, on log disk 8.
        let (mut c, mut log) = (ctx(), PolicyLog::new([8]));
        let mut dirty = vec![DirtyMap::new(); 3];
        logged_write(&mut log, &mut c, &mut dirty, &[8], (1, 0, 4096));
        // Pair 1 destages: its clear and reclaim lift its watermark over
        // its record.
        let (off, len) = dirty[1].take_next(1 << 20).unwrap();
        log.clear(ALL_JOURNALS, 1, off, len);
        log.reclaim(&mut c, [1]);
        logged_write(&mut log, &mut c, &mut dirty, &[8], (0, 0, 8192));
        logged_write(&mut log, &mut c, &mut dirty, &[8], (2, 4096, 4096));
        let before = dirty.clone();

        assert_eq!(log.replay_after_failure(&mut c, 3, &mut dirty), None);
        let counts = log.replay_after_failure(&mut c, 8, &mut dirty).unwrap();
        assert_eq!(
            counts.lost_pairs, 2,
            "pairs 0 and 2 are above their watermarks"
        );
        assert_eq!(counts.divergent_pairs, 0);
        assert_eq!(counts.records, 0, "no journal survives");
        // Lost pairs keep their NVRAM maps rather than the empty replay.
        assert_eq!(dirty, before);
        assert_eq!(dirty[0].bytes(), 8192);
        assert!(log.stores()[&8].segments().is_empty(), "journal wiped");
        let stats = log.fold_stats(PolicyStats::default());
        assert_eq!((stats.log_replays, stats.replay_divergence), (1, 0));
    }

    #[test]
    fn mirrored_copy_death_under_shared_lsn_loses_nothing() {
        // RoLo-R's pair 0 (primary 0, mirror 2) or a RoLo-E logger pair:
        // every record is written to both journals and committed at one
        // shared LSN.
        let (mut c, mut log) = (ctx(), PolicyLog::new([0, 2]));
        let mut dirty = vec![DirtyMap::new(); 2];
        logged_write(&mut log, &mut c, &mut dirty, &[0, 2], (0, 0, 65536));
        logged_write(&mut log, &mut c, &mut dirty, &[0, 2], (1, 8192, 4096));
        // A direct write overwrites part of pair 0 in place.
        let owners = dirty[0].clear_range(4096, 4096);
        log.clear(owners, 0, 4096, 4096);
        // A write still in flight: appended on both, never committed.
        log.append(&mut c, 0, 1, 1, 0, 4096);
        log.append(&mut c, 2, 1, 1, 0, 4096);
        let before = dirty.clone();

        let counts = log.replay_after_failure(&mut c, 2, &mut dirty).unwrap();
        assert_eq!(counts.lost_pairs, 0);
        assert_eq!(counts.divergent_pairs, 0);
        assert_eq!(counts.torn, 1, "the survivor's in-flight copy is torn");
        assert_eq!(dirty, before, "replayed maps equal the NVRAM maps");
        assert_eq!(dirty[0].bytes(), 65536 - 4096);
        assert_eq!(log.stores()[&0].live_bytes(), 65536 - 4096 + 4096);
        assert!(log.stores()[&2].segments().is_empty(), "journal wiped");
    }

    #[test]
    fn divergent_map_is_counted_and_not_installed() {
        let (mut c, mut log) = (ctx(), PolicyLog::new([0, 2]));
        let mut dirty = vec![DirtyMap::new(); 1];
        // A stale extent no journal recorded: replay cannot rebuild it.
        dirty[0].mark(0, 4096);
        let counts = log.replay_after_failure(&mut c, 2, &mut dirty).unwrap();
        assert_eq!((counts.divergent_pairs, counts.lost_pairs), (1, 0));
        assert_eq!(dirty[0].bytes(), 4096, "NVRAM map kept");
        let stats = log.fold_stats(PolicyStats::default());
        assert_eq!((stats.log_replays, stats.replay_divergence), (1, 1));
    }
}
