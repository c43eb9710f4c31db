//! Tracking of inconsistent (stale) mirror extents per mirrored pair.
//!
//! While writes are redirected to a logger, the write-targeted mirror
//! copies go stale. Each pair's stale extents are kept as a set of
//! disjoint, maximally-merged byte ranges over the pair's physical disk
//! offsets. Destage processes drain the map front-to-back, bundling
//! contiguous blocks into large destage I/Os (§VI: "spatial locality is
//! exploited to bundle as many data blocks with successive location as
//! possible in one destaging I/O operation").

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

/// Disjoint, merged set of stale extents for one mirrored pair.
///
/// Every extent also carries an *owner mask*: bit `disk % 64` is set
/// for each journal that may hold live log records inside it. Marks
/// OR their owners in, merges OR the masks together, and splits keep
/// the mask, so a mask only ever over-approximates. A plain
/// [`mark`](Self::mark) sets every bit. Equality ignores the masks.
///
/// # Example
///
/// ```
/// use rolo_core::dirty::DirtyMap;
///
/// let mut d = DirtyMap::new();
/// d.mark(0, 4096);
/// d.mark(4096, 4096);           // adjacent: merges
/// assert_eq!(d.extent_count(), 1);
/// assert_eq!(d.bytes(), 8192);
/// let (off, len) = d.take_next(1 << 20).unwrap();
/// assert_eq!((off, len), (0, 8192));
/// assert!(d.is_clean());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirtyMap {
    /// offset → extent; disjoint and non-adjacent.
    extents: BTreeMap<u64, Extent>,
    bytes: u64,
}

/// One stale extent: its length and owner mask.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Extent {
    len: u64,
    owners: u64,
}

impl PartialEq for DirtyMap {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
            && self.extents.len() == other.extents.len()
            && self.iter().eq(other.iter())
    }
}

impl Eq for DirtyMap {}

impl DirtyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total stale bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of disjoint extents.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// True if nothing is stale.
    pub fn is_clean(&self) -> bool {
        self.extents.is_empty()
    }

    /// Marks `[offset, offset + len)` stale, merging with any overlapping
    /// or adjacent extents. Sets every owner bit.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn mark(&mut self, offset: u64, len: u64) {
        self.mark_owned(offset, len, u64::MAX);
    }

    /// Marks `[offset, offset + len)` stale and ORs `owners` into the
    /// mask of the extent that ends up covering it.
    ///
    /// One descent to the last extent starting at or before the end,
    /// then a walk backwards over every extent the range overlaps or
    /// touches. The lowest of them, when it starts at or before
    /// `offset`, grows in place into the union — a predecessor
    /// extended, or an extent rewritten from its start — so the common
    /// cases cost that one descent (a miss adds the insert's). Any other
    /// absorbed extents leave in one `extract_if` pass.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn mark_owned(&mut self, offset: u64, len: u64, owners: u64) {
        assert!(len > 0, "zero-length dirty extent");
        let end = offset + len;
        let mut owners = owners;
        let mut union_end = end;
        let (mut absorbed, mut absorbed_bytes) = (0, 0);
        let mut lowest = None;
        for (&off, ext) in self.extents.range_mut(..=end).rev() {
            if off + ext.len < offset {
                break;
            }
            union_end = union_end.max(off + ext.len);
            owners |= ext.owners;
            absorbed += 1;
            absorbed_bytes += ext.len;
            lowest = Some((off, ext));
        }
        let kept = match lowest {
            Some((off, ext)) if off <= offset => {
                ext.len = union_end - off;
                ext.owners = owners;
                Some(off)
            }
            _ => None,
        };
        let start = kept.unwrap_or(offset);
        // Every absorbed extent but the kept one starts in (start, end].
        if absorbed > usize::from(kept.is_some()) {
            self.extents
                .extract_if((Excluded(start), Included(end)), |_, _| true)
                .for_each(drop);
        }
        if kept.is_none() {
            let len = union_end - offset;
            self.extents.insert(offset, Extent { len, owners });
        }
        self.bytes = self.bytes - absorbed_bytes + (union_end - start);
    }

    /// ORs `owners` into every extent overlapping `[offset, offset +
    /// len)`, leaving extents and bytes unchanged (log records
    /// relocated into more journals).
    pub fn add_owners(&mut self, offset: u64, len: u64, owners: u64) {
        let end = offset + len;
        for (&off, ext) in self.extents.range_mut(..end).rev() {
            if off + ext.len <= offset {
                break;
            }
            ext.owners |= owners;
        }
    }

    /// Removes and returns the lowest-addressed stale run, clipped to
    /// `max_bytes` — the next destage I/O.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero.
    pub fn take_next(&mut self, max_bytes: u64) -> Option<(u64, u64)> {
        self.take_next_owned(max_bytes)
            .map(|(off, len, _)| (off, len))
    }

    /// Like [`take_next`](Self::take_next), also returning the owner
    /// mask of the run taken.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero.
    pub fn take_next_owned(&mut self, max_bytes: u64) -> Option<(u64, u64, u64)> {
        assert!(max_bytes > 0, "zero-length destage chunk");
        let (off, ext) = self.extents.pop_first()?;
        let len = ext.len.min(max_bytes);
        if ext.len > len {
            self.extents.insert(
                off + len,
                Extent {
                    len: ext.len - len,
                    owners: ext.owners,
                },
            );
        }
        self.bytes -= len;
        Some((off, len, ext.owners))
    }

    /// Removes any staleness within `[offset, offset + len)` (e.g. the
    /// range was just overwritten in place on the mirror). Returns the
    /// union of the owner masks of the extents it touched.
    ///
    /// One descent to the last extent starting before the end, then a
    /// walk backwards: a straddling predecessor is trimmed in place,
    /// extents starting inside leave in one `extract_if` pass, and a
    /// piece past the end is re-keyed there.
    pub fn clear_range(&mut self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = offset + len;
        let mut owners = 0;
        let mut cleared = 0;
        let mut tail = None;
        let mut inner = false;
        for (&off, ext) in self.extents.range_mut(..end).rev() {
            let ext_end = off + ext.len;
            if ext_end <= offset {
                break;
            }
            owners |= ext.owners;
            cleared += ext_end.min(end) - off.max(offset);
            if ext_end > end {
                tail = Some((
                    end,
                    Extent {
                        len: ext_end - end,
                        owners: ext.owners,
                    },
                ));
            }
            if off < offset {
                ext.len = offset - off;
            } else {
                inner = true;
            }
        }
        if inner {
            self.extents
                .extract_if(offset..end, |_, _| true)
                .for_each(drop);
        }
        if let Some((off, ext)) = tail {
            self.extents.insert(off, ext);
        }
        self.bytes -= cleared;
        owners
    }

    /// Iterates over the stale extents in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.extents.iter().map(|(&o, e)| (o, e.len))
    }

    /// Iterates over `(offset, len, owners)` in address order.
    pub fn iter_owned(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.extents.iter().map(|(&o, e)| (o, e.len, e.owners))
    }

    /// Debug invariant check: extents disjoint, non-adjacent, accounted.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u64> = None;
        let mut total = 0;
        for (&off, ext) in &self.extents {
            let len = ext.len;
            if len == 0 {
                return Err(format!("zero-length extent at {off}"));
            }
            if let Some(pe) = prev_end {
                if off < pe {
                    return Err(format!("overlap at {off}"));
                }
                if off == pe {
                    return Err(format!("unmerged adjacency at {off}"));
                }
            }
            prev_end = Some(off + len);
            total += len;
        }
        if total != self.bytes {
            return Err("byte accounting out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mark_merges_overlap() {
        let mut d = DirtyMap::new();
        d.mark(100, 100);
        d.mark(150, 100); // overlaps
        assert_eq!(d.extent_count(), 1);
        assert_eq!(d.bytes(), 150);
        d.check_invariants().unwrap();
    }

    #[test]
    fn mark_merges_spanning_several() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.mark(20, 10);
        d.mark(40, 10);
        d.mark(5, 40); // swallows all three
        assert_eq!(d.extent_count(), 1);
        assert_eq!(d.bytes(), 50);
        d.check_invariants().unwrap();
    }

    #[test]
    fn disjoint_marks_stay_disjoint() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.mark(100, 10);
        assert_eq!(d.extent_count(), 2);
        assert_eq!(d.bytes(), 20);
    }

    #[test]
    fn take_next_clips() {
        let mut d = DirtyMap::new();
        d.mark(0, 1000);
        assert_eq!(d.take_next(300), Some((0, 300)));
        assert_eq!(d.take_next(300), Some((300, 300)));
        assert_eq!(d.bytes(), 400);
        assert_eq!(d.take_next(10_000), Some((600, 400)));
        assert!(d.take_next(1).is_none());
        assert!(d.is_clean());
    }

    #[test]
    fn clear_range_splits() {
        let mut d = DirtyMap::new();
        d.mark(0, 100);
        d.clear_range(40, 20);
        assert_eq!(d.bytes(), 80);
        let ext: Vec<_> = d.iter().collect();
        assert_eq!(ext, vec![(0, 40), (60, 40)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn clear_range_across_extents() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.mark(20, 10);
        d.mark(40, 10);
        d.clear_range(5, 40);
        let ext: Vec<_> = d.iter().collect();
        assert_eq!(ext, vec![(0, 5), (45, 5)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn owner_masks_merge_split_and_ignore_equality() {
        let mut d = DirtyMap::new();
        d.mark_owned(0, 100, 0b01);
        d.mark_owned(100, 50, 0b10); // touches: grows in place
        assert_eq!(d.iter_owned().collect::<Vec<_>>(), vec![(0, 150, 0b11)]);
        assert_eq!(d.clear_range(200, 10), 0, "nothing dirty there");
        assert_eq!(d.take_next_owned(60), Some((0, 60, 0b11)));
        d.add_owners(140, 100, 0b100);
        assert_eq!(d.iter_owned().collect::<Vec<_>>(), vec![(60, 90, 0b111)]);
        let mut e = DirtyMap::new();
        e.mark(60, 90);
        assert_eq!(d, e, "equality ignores the masks");
    }

    #[test]
    fn clear_empty_range_is_noop() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.clear_range(5, 0);
        assert_eq!(d.bytes(), 10);
        assert_eq!(d.extent_count(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_invariants_under_random_ops(
            ops in proptest::collection::vec((0u8..3, 0u64..10_000, 1u64..500), 1..150)
        ) {
            let mut d = DirtyMap::new();
            for (op, off, len) in ops {
                match op {
                    0 | 1 => d.mark(off, len),
                    _ => {
                        d.clear_range(off, len);
                    }
                }
                prop_assert!(d.check_invariants().is_ok());
            }
        }

        /// Against a byte-level model: the map holds exactly the marked
        /// and not-yet-cleared bytes, and every extent's owner mask
        /// covers every owner that marked one of its bytes since that
        /// byte was last cleared. Clears and takes hand back a mask
        /// covering the owners of every byte they removed.
        #[test]
        fn prop_matches_byte_model_with_owner_masks(
            ops in proptest::collection::vec(
                (0u8..6, 0u64..2_000, 1u64..200, 0u64..16),
                1..150,
            )
        ) {
            const SPAN: usize = 2_200;
            let mut d = DirtyMap::new();
            // Per byte: `None` when clean, else the owners that must be
            // tagged on it.
            let mut model: Vec<Option<u64>> = vec![None; SPAN];
            for (op, off, len, owners) in ops {
                let range = off as usize..(off + len) as usize;
                match op {
                    0 | 1 => {
                        d.mark_owned(off, len, owners);
                        for b in &mut model[range] {
                            *b = Some(b.unwrap_or(0) | owners);
                        }
                    }
                    2 => {
                        d.mark(off, len);
                        model[range].fill(Some(u64::MAX));
                    }
                    3 => {
                        let got = d.clear_range(off, len);
                        for b in &mut model[range] {
                            let want = b.take().unwrap_or(0);
                            prop_assert_eq!(got & want, want, "clear lost an owner");
                        }
                    }
                    4 => {
                        d.add_owners(off, len, owners);
                        for b in model[range].iter_mut().flatten() {
                            *b |= owners;
                        }
                    }
                    _ => {
                        let first = model.iter().position(Option::is_some);
                        match d.take_next_owned(len) {
                            None => prop_assert!(first.is_none()),
                            Some((o, l, got)) => {
                                prop_assert_eq!(Some(o as usize), first);
                                for b in &mut model[o as usize..(o + l) as usize] {
                                    let want = b.take().expect("taken byte was dirty");
                                    prop_assert_eq!(got & want, want, "take lost an owner");
                                }
                            }
                        }
                    }
                }
                prop_assert!(d.check_invariants().is_ok(), "{:?}", d.check_invariants());
                let mut covered = vec![None; SPAN];
                for (o, l, m) in d.iter_owned() {
                    covered[o as usize..(o + l) as usize].fill(Some(m));
                }
                for (b, (want, got)) in model.iter().zip(&covered).enumerate() {
                    match (want, got) {
                        (None, None) => {}
                        (Some(w), Some(g)) => prop_assert_eq!(g & w, *w, "byte {} lost an owner", b),
                        _ => prop_assert!(false, "byte {} dirty in {:?}, map {:?}", b, want, got),
                    }
                }
            }
        }

        #[test]
        fn prop_marked_bytes_drainable(
            marks in proptest::collection::vec((0u64..100_000, 1u64..1_000), 1..60)
        ) {
            let mut d = DirtyMap::new();
            for (off, len) in &marks {
                d.mark(*off, *len);
            }
            let total = d.bytes();
            let mut drained = 0;
            while let Some((_, l)) = d.take_next(777) {
                drained += l;
            }
            prop_assert_eq!(drained, total);
            prop_assert!(d.is_clean());
        }
    }
}
