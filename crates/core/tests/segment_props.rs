//! Property suite for the log-structured segment layer (DESIGN.md §10):
//! a pair of mirrored journals plus the controller manifest is driven
//! through random append / commit / abandon / clear / reclaim / compact
//! / archive / retire sequences while a reference dirty map tracks what
//! the controller would hold in NVRAM. After every operation the
//! segment-state invariants must hold and recovery-by-replay — from
//! both journals *and* from either single survivor — must reconstruct
//! the reference maps exactly.

use proptest::prelude::*;
use rolo_core::dirty::DirtyMap;
use rolo_core::segment::{
    clear_owned_journals, owner_bit, replay_journals, LogManifest, SegmentStore,
};
use std::collections::BTreeMap;

const PAIRS: usize = 3;
const SEG_BYTES: u64 = 4096 + 256;
const BLOCK: u64 = 1024;
const ARCHIVE_TTL_US: u64 = 5_000;

/// The model: two journals receiving identical mirrored appends under
/// shared LSNs (the RoLo invariant), the controller manifest, and the
/// reference dirty maps mutated at each commit/clear instant.
struct Model {
    a: SegmentStore,
    b: SegmentStore,
    manifest: LogManifest,
    dirty: Vec<DirtyMap>,
    /// In-flight appends: `(rid_a, rid_b, pair, lba, len)`.
    pending: Vec<(u64, u64, usize, u64, u64)>,
    /// Mirrored rid pairs committed under a shared LSN, in commit order
    /// (the corruption property flips checksums of these).
    committed: Vec<(u64, u64)>,
    next_lsn: u64,
    now_us: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            a: SegmentStore::new(SEG_BYTES),
            b: SegmentStore::new(SEG_BYTES),
            manifest: LogManifest::new(),
            dirty: (0..PAIRS).map(|_| DirtyMap::new()).collect(),
            pending: Vec::new(),
            committed: Vec::new(),
            next_lsn: 0,
            now_us: 0,
        }
    }

    fn lsn(&mut self) -> u64 {
        self.next_lsn += 1;
        self.next_lsn
    }

    fn step(&mut self, op: u8, pair: usize, lba: u64, len: u64) {
        self.now_us += 1_000;
        match op {
            // Append one mirrored record (uncommitted: torn on a crash).
            0 | 1 => {
                let ra = self.a.append(pair, 0, lba, len).rid;
                let rb = self.b.append(pair, 0, lba, len).rid;
                self.pending.push((ra, rb, pair, lba, len));
            }
            // Ack the oldest in-flight request: commit both copies under
            // one shared LSN and mark the dirty map at the same instant.
            2 => {
                if self.pending.is_empty() {
                    return;
                }
                let (ra, rb, pair, lba, len) = self.pending.remove(0);
                let lsn = self.lsn();
                self.a.commit(ra, lsn);
                self.b.commit(rb, lsn);
                self.committed.push((ra, rb));
                self.dirty[pair].mark(lba, len);
            }
            // Lose the oldest in-flight request: permanently torn.
            3 => {
                if self.pending.is_empty() {
                    return;
                }
                let (ra, rb, _, _, _) = self.pending.remove(0);
                self.a.abandon(ra);
                self.b.abandon(rb);
            }
            // Dirty-map clear (destage extraction / direct overwrite):
            // manifest op plus live-extent removal on every journal.
            4 => {
                let lsn = self.lsn();
                self.manifest.clear(lsn, pair, lba, len);
                self.a.clear_extent(pair, lba, len);
                self.b.clear_extent(pair, lba, len);
                self.dirty[pair].clear_range(lba, len);
            }
            // Destage completion: only legal once the pair is clean.
            5 => {
                if !self.dirty[pair].is_clean() {
                    return;
                }
                let lsn = self.lsn();
                self.manifest.reclaim(lsn, pair);
                self.a.reclaim_pair(pair);
                self.b.reclaim_pair(pair);
            }
            // Compaction: relocate the live extents of one mostly-dead
            // sealed segment into the active segments of both journals.
            // Each piece re-commits under a fresh shared LSN; the source
            // extents are superseded by the commit itself, and the
            // dirty map is untouched (those bytes are already marked).
            6 => {
                let Some(&seg) = self.a.compaction_candidates(0.5).first() else {
                    return;
                };
                for (pair, lba, len) in self.a.live_extents_of(seg) {
                    for (off, piece) in self.a.live_intersection(seg, pair, lba, len) {
                        let lsn = self.lsn();
                        let ra = self.a.append(pair, 0, off, piece).rid;
                        self.a.commit(ra, lsn);
                        let rb = self.b.append(pair, 0, off, piece).rid;
                        self.b.commit(rb, lsn);
                        self.committed.push((ra, rb));
                        self.a.note_compacted(piece);
                        self.b.note_compacted(piece);
                    }
                }
            }
            // Archive sweep plus TTL retirement.
            _ => {
                for j in [&mut self.a, &mut self.b] {
                    for seg in j.archive_ready() {
                        j.archive(seg, self.now_us);
                    }
                    j.retire_expired(self.now_us, ARCHIVE_TTL_US);
                }
            }
        }
    }

    /// Replays the given survivors and compares every pair's map to the
    /// reference. Mirrored commits share LSNs, so even a single
    /// survivor covers every pair.
    fn assert_replay(&self, survivors: &[&SegmentStore]) -> Result<(), TestCaseError> {
        let outcome = replay_journals(survivors.iter().copied(), &self.manifest, PAIRS);
        for (pair, map) in outcome.maps.iter().enumerate() {
            prop_assert_eq!(
                map,
                &self.dirty[pair],
                "pair {} diverged (survivors: {})",
                pair,
                survivors.len()
            );
        }
        Ok(())
    }
}

/// Journals in the owner-mask pool model.
const DISKS: usize = 4;

/// A pool of journals driven the way the RoLo-P/R controller drives
/// them, twice in lockstep: `pruned` receives each dirty-map clear only
/// on the journals tagged in the cleared range's owner mask, `full` on
/// every journal. A byte-level reference tracks, per journal, which
/// segment owns each logged block, and per pair which journals
/// committed each block since its last clear.
struct Pool {
    pruned: BTreeMap<usize, SegmentStore>,
    full: BTreeMap<usize, SegmentStore>,
    dirty: Vec<DirtyMap>,
    /// `(disk, pair, block)` → segment owning that logged block.
    owner: BTreeMap<(usize, usize, u64), u64>,
    /// `(pair, block)` → owner bits of the journals that committed the
    /// block since it was last cleared.
    committed: BTreeMap<(usize, u64), u64>,
    /// In-flight writes.
    pending: Vec<InFlight>,
    next_lsn: u64,
    now_us: u64,
}

/// One in-flight write in the pool model.
struct InFlight {
    /// Per target journal: `(disk, rid, segment)`.
    copies: Vec<(usize, u64, u64)>,
    pair: usize,
    lba: u64,
    len: u64,
}

/// One target (RoLo-P's single mirror) or two (RoLo-R's pair).
fn targets(t: usize) -> Vec<usize> {
    if t < DISKS {
        vec![t]
    } else {
        vec![t - DISKS, (t - DISKS + 1) % DISKS]
    }
}

fn blocks(lba: u64, len: u64) -> std::ops::Range<u64> {
    lba / BLOCK..(lba + len) / BLOCK
}

impl Pool {
    fn new() -> Self {
        let journals: BTreeMap<usize, SegmentStore> = (0..DISKS)
            .map(|d| (d, SegmentStore::new(SEG_BYTES)))
            .collect();
        Pool {
            pruned: journals.clone(),
            full: journals,
            dirty: (0..PAIRS).map(|_| DirtyMap::new()).collect(),
            owner: BTreeMap::new(),
            committed: BTreeMap::new(),
            pending: Vec::new(),
            next_lsn: 0,
            now_us: 0,
        }
    }

    /// Appends and commits one record on `disk` in both pools, claiming
    /// its blocks in the reference.
    fn append_commit(&mut self, disk: usize, pair: usize, lba: u64, len: u64, lsn: u64) {
        let mut segment = 0;
        for pool in [&mut self.pruned, &mut self.full] {
            let j = pool.get_mut(&disk).expect("journal");
            let rid = j.append(pair, 0, lba, len).rid;
            segment = j.segments().len() as u64 - 1;
            j.commit(rid, lsn);
        }
        for b in blocks(lba, len) {
            self.owner.insert((disk, pair, b), segment);
            *self.committed.entry((pair, b)).or_default() |= owner_bit(disk);
        }
    }

    /// A dirty-map clear handed to both pools: owner-pruned and full.
    fn clear(&mut self, owners: u64, pair: usize, lba: u64, len: u64) -> Result<(), TestCaseError> {
        clear_owned_journals(&mut self.pruned, owners, pair, lba, len);
        for j in self.full.values_mut() {
            j.clear_extent(pair, lba, len);
        }
        for b in blocks(lba, len) {
            let want = self.committed.remove(&(pair, b)).unwrap_or(0);
            prop_assert_eq!(owners & want, want, "clear of block {} lost an owner", b);
            for d in 0..DISKS {
                self.owner.remove(&(d, pair, b));
            }
        }
        Ok(())
    }

    fn step(
        &mut self,
        op: u8,
        pair: usize,
        lba: u64,
        len: u64,
        t: usize,
    ) -> Result<(), TestCaseError> {
        self.now_us += 1_000;
        match op {
            // A write: one uncommitted record per target journal.
            0 | 1 => {
                let mut copies = Vec::new();
                for d in targets(t) {
                    let rid = self
                        .pruned
                        .get_mut(&d)
                        .unwrap()
                        .append(pair, 0, lba, len)
                        .rid;
                    let full_rid = self.full.get_mut(&d).unwrap().append(pair, 0, lba, len).rid;
                    prop_assert_eq!(rid, full_rid);
                    copies.push((d, rid, self.pruned[&d].segments().len() as u64 - 1));
                }
                self.pending.push(InFlight {
                    copies,
                    pair,
                    lba,
                    len,
                });
            }
            // Acknowledgement: commit every copy under one LSN and mark
            // the dirty map with the committing journals.
            2 => {
                if self.pending.is_empty() {
                    return Ok(());
                }
                let InFlight {
                    copies,
                    pair,
                    lba,
                    len,
                } = self.pending.remove(0);
                self.next_lsn += 1;
                let mut owners = 0;
                for &(d, rid, segment) in &copies {
                    for pool in [&mut self.pruned, &mut self.full] {
                        pool.get_mut(&d).unwrap().commit(rid, self.next_lsn);
                    }
                    owners |= owner_bit(d);
                    for b in blocks(lba, len) {
                        self.owner.insert((d, pair, b), segment);
                        *self.committed.entry((pair, b)).or_default() |= owner_bit(d);
                    }
                }
                self.dirty[pair].mark_owned(lba, len, owners);
            }
            3 => {
                if self.pending.is_empty() {
                    return Ok(());
                }
                for (d, rid, _) in self.pending.remove(0).copies {
                    for pool in [&mut self.pruned, &mut self.full] {
                        pool.get_mut(&d).unwrap().abandon(rid);
                    }
                }
            }
            // Destage extraction of the next chunk.
            4 => {
                if let Some((off, l, owners)) = self.dirty[pair].take_next_owned(len) {
                    self.clear(owners, pair, off, l)?;
                }
            }
            // Direct-write overwrite of an arbitrary range.
            5 => {
                let owners = self.dirty[pair].clear_range(lba, len);
                self.clear(owners, pair, lba, len)?;
            }
            // Destage completion, legal once the pair is clean.
            6 => {
                if self.dirty[pair].is_clean() {
                    for pool in [&mut self.pruned, &mut self.full] {
                        for j in pool.values_mut() {
                            j.reclaim_pair(pair);
                        }
                    }
                }
            }
            // Compaction: relocate one sealed segment's live pieces onto
            // the target journals, tagging the dirty extents with them.
            7 => {
                let src = t % DISKS;
                let Some(&seg) = self.pruned[&src].compaction_candidates(1.0).first() else {
                    return Ok(());
                };
                let to = targets(t / DISKS * DISKS + (t + 1) % DISKS);
                let mask = to.iter().fold(0, |m, &d| m | owner_bit(d));
                for (pair, lba, len) in self.pruned[&src].live_extents_of(seg) {
                    for (off, piece) in self.pruned[&src].live_intersection(seg, pair, lba, len) {
                        self.next_lsn += 1;
                        let lsn = self.next_lsn;
                        self.dirty[pair].add_owners(off, piece, mask);
                        for &d in &to {
                            self.append_commit(d, pair, off, piece, lsn);
                        }
                        if !to.contains(&src) {
                            for pool in [&mut self.pruned, &mut self.full] {
                                pool.get_mut(&src).unwrap().clear_extent(pair, off, piece);
                            }
                            for b in blocks(off, piece) {
                                self.owner.remove(&(src, pair, b));
                            }
                        }
                    }
                }
            }
            // Archive sweep plus TTL retirement.
            _ => {
                for pool in [&mut self.pruned, &mut self.full] {
                    for j in pool.values_mut() {
                        for seg in j.archive_ready() {
                            j.archive(seg, self.now_us);
                        }
                        j.retire_expired(self.now_us, ARCHIVE_TTL_US);
                    }
                }
            }
        }
        Ok(())
    }

    /// Pruned and full pools agree byte for byte, both match the
    /// reference, and every live block lies in a dirty extent tagged
    /// with its journal.
    fn check(&self) -> Result<(), TestCaseError> {
        for d in 0..DISKS {
            let (p, f) = (&self.pruned[&d], &self.full[&d]);
            prop_assert!(p.check_invariants().is_ok(), "{:?}", p.check_invariants());
            let shape = |j: &SegmentStore| {
                j.segments()
                    .iter()
                    .map(|s| (s.id, s.state, s.used, s.live, s.pending, s.records.len()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(shape(p), shape(f), "journal {} segments", d);
            let mut live_blocks = 0;
            for seg in p.segments() {
                let exts = p.live_extents_of(seg.id);
                prop_assert_eq!(&exts, &f.live_extents_of(seg.id), "journal {} tree", d);
                let mut owned = 0;
                for (pair, lba, len) in exts {
                    for b in blocks(lba, len) {
                        prop_assert_eq!(self.owner.get(&(d, pair, b)), Some(&seg.id));
                        owned += 1;
                        let tag = self.dirty[pair]
                            .iter_owned()
                            .find(|&(o, l, _)| o <= b * BLOCK && b * BLOCK < o + l)
                            .map(|(_, _, m)| m);
                        prop_assert!(
                            tag.is_some_and(|m| m & owner_bit(d) != 0),
                            "journal {} live block {} of pair {} untagged: {:?}",
                            d,
                            b,
                            pair,
                            tag
                        );
                    }
                }
                prop_assert_eq!(seg.live, owned * BLOCK, "segment {} live", seg.id);
                live_blocks += owned;
            }
            let modeled = self.owner.keys().filter(|&&(od, ..)| od == d).count() as u64;
            prop_assert_eq!(live_blocks, modeled, "journal {} owned blocks", d);
        }
        for (pair, map) in self.dirty.iter().enumerate() {
            let mut dirty_blocks = Vec::new();
            for (off, len, owners) in map.iter_owned() {
                for b in blocks(off, len) {
                    let want = self.committed.get(&(pair, b)).copied();
                    prop_assert!(
                        want.is_some(),
                        "pair {} block {} dirty but never committed",
                        pair,
                        b
                    );
                    prop_assert_eq!(owners & want.unwrap(), want.unwrap());
                    dirty_blocks.push(b);
                }
            }
            let modeled: Vec<u64> = self
                .committed
                .keys()
                .filter(|&&(p, _)| p == pair)
                .map(|&(_, b)| b)
                .collect();
            prop_assert_eq!(dirty_blocks, modeled, "pair {} dirty set", pair);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Owner-pruned clears leave every journal exactly as a clear fanned
    /// out to all journals does — for single-target (RoLo-P) and
    /// two-target (RoLo-R) appends, destage takes, direct overwrites,
    /// reclaims and compaction relocations — and both match a
    /// byte-level reference of block ownership and per-segment live.
    #[test]
    fn prop_owner_pruned_clears_match_full_fanout(
        ops in proptest::collection::vec(
            (0u8..9, 0usize..PAIRS, 0u64..24, 1u64..6, 0usize..2 * DISKS),
            1..150,
        )
    ) {
        let mut pool = Pool::new();
        for (op, pair, block, blocks, t) in ops {
            pool.step(op, pair, block * BLOCK, blocks * BLOCK, t)?;
            pool.check()?;
        }
    }

    /// Invariants hold and replay reconstructs the reference dirty maps
    /// after every single operation, for the full journal set and for
    /// either single survivor (one logger death).
    #[test]
    fn prop_lifecycle_invariants_and_replay(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..PAIRS, 0u64..24, 1u64..6),
            1..120,
        )
    ) {
        let mut m = Model::new();
        for (op, pair, block, blocks) in ops {
            m.step(op, pair, block * BLOCK, blocks * BLOCK);
            prop_assert!(m.a.check_invariants().is_ok(), "{:?}", m.a.check_invariants());
            prop_assert!(m.b.check_invariants().is_ok(), "{:?}", m.b.check_invariants());
            m.assert_replay(&[&m.a, &m.b])?;
            m.assert_replay(&[&m.a])?;
            m.assert_replay(&[&m.b])?;
        }
        // Every in-flight record left at the end scans as torn.
        let torn = replay_journals([&m.a], &m.manifest, PAIRS).torn_records;
        let pending_in_a = m.pending.len() as u64;
        prop_assert!(torn >= pending_in_a);
    }

    /// End-to-end checksum round trip: flipping checksums of committed
    /// records in sealed or active segments is always *detected* (never
    /// silently replayed as clean data), every corrupt copy is
    /// classified exactly once as repaired-or-lost, and as long as each
    /// record keeps one clean mirrored copy, replay from both journals
    /// still reconstructs the reference maps exactly.
    #[test]
    fn prop_corrupt_records_detected_and_classified(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..PAIRS, 0u64..24, 1u64..6),
            1..80,
        ),
        flips in proptest::collection::vec(0u8..4, 64..65),
    ) {
        let mut m = Model::new();
        for (op, pair, block, blocks) in ops {
            m.step(op, pair, block * BLOCK, blocks * BLOCK);
        }
        let mut flipped = 0u64;
        let mut both_sided = false;
        let committed = m.committed.clone();
        for (i, &(ra, rb)) in committed.iter().enumerate() {
            // 0 = clean, 1 = corrupt journal a, 2 = journal b, 3 = both.
            match flips.get(i).copied().unwrap_or(0) {
                1 => flipped += u64::from(m.a.corrupt_record(ra)),
                2 => flipped += u64::from(m.b.corrupt_record(rb)),
                3 => {
                    let fa = m.a.corrupt_record(ra);
                    let fb = m.b.corrupt_record(rb);
                    flipped += u64::from(fa) + u64::from(fb);
                    both_sided |= fa && fb;
                }
                _ => {}
            }
        }
        let out = replay_journals([&m.a, &m.b], &m.manifest, PAIRS);
        // Detection is exhaustive: every flipped copy scans as corrupt
        // (never as clean or torn), and every corrupt copy is classified.
        prop_assert_eq!(out.corrupt_records, flipped);
        prop_assert_eq!(out.corrupt_records, out.corrupt_repaired + out.corrupt_lost);
        if !both_sided {
            // One clean mirrored copy per record: nothing may be lost
            // and the reconstruction must stay exact.
            prop_assert_eq!(out.corrupt_lost, 0);
            m.assert_replay(&[&m.a, &m.b])?;
        }
    }

    /// Archival never drops replay coverage: archiving every eligible
    /// segment after each step and retiring every frame immediately
    /// still leaves single-survivor replay exact.
    #[test]
    fn prop_aggressive_archival_preserves_replay(
        ops in proptest::collection::vec(
            (0u8..6, 0usize..PAIRS, 0u64..24, 1u64..6),
            1..80,
        )
    ) {
        let mut m = Model::new();
        for (op, pair, block, blocks) in ops {
            m.step(op, pair, block * BLOCK, blocks * BLOCK);
            // Immediately archive and retire everything eligible.
            m.step(7, 0, 0, BLOCK);
            for j in [&mut m.a, &mut m.b] {
                j.retire_expired(u64::MAX, 0);
            }
            m.assert_replay(&[&m.a, &m.b])?;
            m.assert_replay(&[&m.b])?;
        }
    }
}
