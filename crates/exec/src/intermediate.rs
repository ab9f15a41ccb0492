//! Materialised intermediate results.
//!
//! An [`Intermediate`] is the output of a (partial) plan: a table of tuples,
//! each tuple holding one [`RowId`] per base relation joined so far.  Keeping
//! row ids instead of copied values keeps intermediates small and lets any
//! downstream operator fetch whatever column it needs from the base tables.
//!
//! The tuple store is *chunked*: a sequential producer appends into a single
//! chunk, while the morsel-driven pipeline engine materialises one chunk per
//! source morsel and concatenates them in morsel order, so the tuple order is
//! identical whichever worker produced which chunk.  [`Intermediate::morsels`]
//! hands out the fixed-size tuple ranges that pipeline workers pull.

use qob_plan::RelSet;
use qob_storage::{Database, RowId};

/// A materialised intermediate result.
#[derive(Debug, Clone)]
pub struct Intermediate {
    /// The relation indices covered, in slot order.
    rels: Vec<usize>,
    /// Tuple storage: each chunk holds `chunk.len() / width` complete tuples,
    /// flattened as `chunk[t * width + s]`.
    chunks: Vec<Vec<RowId>>,
    /// Cumulative tuple counts: `offsets[i]` is the global index of the first
    /// tuple of chunk `i`; `offsets.last()` is the total tuple count.
    offsets: Vec<usize>,
}

impl Intermediate {
    /// Creates an intermediate over the given relations with no tuples.
    pub fn empty(rels: Vec<usize>) -> Self {
        Intermediate { rels, chunks: vec![Vec::new()], offsets: vec![0, 0] }
    }

    /// Creates a single-relation intermediate from a selection vector.
    pub fn from_scan(rel: usize, rows: Vec<RowId>) -> Self {
        let len = rows.len();
        Intermediate { rels: vec![rel], chunks: vec![rows], offsets: vec![0, len] }
    }

    /// Assembles an intermediate from per-morsel output chunks, in the order
    /// given (the deterministic concatenation of a parallel pipeline).  Empty
    /// chunks are dropped.
    pub fn from_chunks(rels: Vec<usize>, chunks: Vec<Vec<RowId>>) -> Self {
        let width = rels.len().max(1);
        let mut kept = Vec::with_capacity(chunks.len());
        let mut offsets = Vec::with_capacity(chunks.len() + 1);
        offsets.push(0);
        let mut total = 0usize;
        for chunk in chunks {
            if chunk.is_empty() {
                continue;
            }
            debug_assert_eq!(chunk.len() % width, 0, "chunk holds whole tuples");
            total += chunk.len() / width;
            offsets.push(total);
            kept.push(chunk);
        }
        if kept.is_empty() {
            return Intermediate::empty(rels);
        }
        Intermediate { rels, chunks: kept, offsets }
    }

    /// The relation indices covered, in slot order.
    pub fn rels(&self) -> &[usize] {
        &self.rels
    }

    /// The covered relations as a set.
    pub fn rel_set(&self) -> RelSet {
        self.rels.iter().copied().collect()
    }

    /// Number of slots per tuple.
    pub fn width(&self) -> usize {
        self.rels.len()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        if self.rels.is_empty() {
            0
        } else {
            *self.offsets.last().expect("offsets never empty")
        }
    }

    /// True if there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of storage chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The raw tuple data of chunk `i`.
    pub fn chunk(&self, i: usize) -> &[RowId] {
        &self.chunks[i]
    }

    /// The slot position of relation `rel`, if covered.
    pub fn slot_of(&self, rel: usize) -> Option<usize> {
        self.rels.iter().position(|r| *r == rel)
    }

    /// The chunk index holding global tuple `t`.
    #[inline]
    fn chunk_of(&self, t: usize) -> usize {
        // partition_point returns the first offset > t, i.e. 1 + chunk index.
        self.offsets.partition_point(|&o| o <= t) - 1
    }

    /// The tuple at global index `t` as a slice of row ids (one per slot).
    #[inline]
    pub fn tuple(&self, t: usize) -> &[RowId] {
        let w = self.width();
        if self.chunks.len() == 1 {
            // Fast path: sequentially-built intermediates are single-chunk.
            return &self.chunks[0][t * w..(t + 1) * w];
        }
        let c = self.chunk_of(t);
        let local = t - self.offsets[c];
        &self.chunks[c][local * w..(local + 1) * w]
    }

    /// The tuples with global indices in `range` as flat slices of whole
    /// tuples, one per chunk the range touches — chunk boundaries are walked
    /// without per-tuple search.
    pub fn slices_in(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &[RowId]> + '_ {
        let w = self.width().max(1);
        let start_chunk = if range.start < range.end { self.chunk_of(range.start) } else { 0 };
        let mut remaining = range.end.saturating_sub(range.start);
        let mut local = range.start - self.offsets.get(start_chunk).copied().unwrap_or(0);
        self.chunks[start_chunk..].iter().map_while(move |chunk| {
            if remaining == 0 {
                return None;
            }
            let tuples = chunk.len() / w;
            let begin = local.min(tuples);
            let take = (tuples - begin).min(remaining);
            local = 0;
            remaining -= take;
            Some(&chunk[begin * w..(begin + take) * w])
        })
    }

    /// Fixed-size morsel ranges covering all tuples, in tuple order.
    pub fn morsels(&self, morsel_tuples: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        let len = self.len();
        let size = morsel_tuples.max(1);
        (0..len.div_ceil(size)).map(move |m| m * size..((m + 1) * size).min(len))
    }

    /// Appends a tuple assembled from two parent tuples.
    #[inline]
    pub fn push_joined(&mut self, left: &[RowId], right: &[RowId]) {
        let last = self.chunks.last_mut().expect("at least one chunk");
        last.extend_from_slice(left);
        last.extend_from_slice(right);
        *self.offsets.last_mut().expect("offsets never empty") += 1;
    }

    /// Appends a tuple.
    #[inline]
    pub fn push_tuple(&mut self, tuple: &[RowId]) {
        debug_assert_eq!(tuple.len(), self.width());
        self.chunks.last_mut().expect("at least one chunk").extend_from_slice(tuple);
        *self.offsets.last_mut().expect("offsets never empty") += 1;
    }

    /// Reserves space for `tuples` additional tuples.
    pub fn reserve(&mut self, tuples: usize) {
        let slots = tuples.saturating_mul(self.width());
        self.chunks.last_mut().expect("at least one chunk").reserve(slots);
    }

    /// Fetches the integer value of `column` of relation `rel` for tuple `t`,
    /// or `None` if the value is NULL.
    #[inline]
    pub fn int_value(
        &self,
        db: &Database,
        query: &qob_plan::QuerySpec,
        t: usize,
        rel: usize,
        column: qob_storage::ColumnId,
    ) -> Option<i64> {
        let slot = self.slot_of(rel)?;
        let row = self.tuple(t)[slot];
        let table = db.table(query.relations[rel].table);
        table.column(column).int_at(row as usize)
    }

    /// Total number of row-id slots stored (a memory proxy used by abort
    /// guards).
    pub fn slot_count(&self) -> usize {
        self.len() * self.width()
    }
}

/// A store of materialised intermediates keyed by the relation set they
/// cover — the "virtual base relations" of adaptive execution.  The pipeline
/// engine consults it while compiling: a subtree whose relation set is
/// stored is served from the store instead of being re-executed, so a
/// re-planned remainder resumes on already-done work.
#[derive(Debug, Default)]
pub struct Materialized {
    map: std::collections::HashMap<RelSet, Intermediate>,
}

impl Materialized {
    /// An empty store.
    pub fn new() -> Self {
        Materialized::default()
    }

    /// Stores `intermediate` under its relation set, dropping any stored
    /// strict subset (a superset subsumes its parts: once `{a,b}` is
    /// materialised, `{a}` can never be consulted again because compilation
    /// stops at the outermost stored set).
    pub fn insert(&mut self, intermediate: Intermediate) {
        let set = intermediate.rel_set();
        self.map.retain(|s, _| !s.is_subset_of(set) || *s == set);
        self.map.insert(set, intermediate);
    }

    /// The stored intermediate covering exactly `set`, if any.
    pub fn get(&self, set: RelSet) -> Option<&Intermediate> {
        self.map.get(&set)
    }

    /// True if an intermediate covering exactly `set` is stored.
    pub fn contains(&self, set: RelSet) -> bool {
        self.map.contains_key(&set)
    }

    /// The stored relation sets, sorted for deterministic iteration.
    pub fn sets(&self) -> Vec<RelSet> {
        let mut sets: Vec<RelSet> = self.map.keys().copied().collect();
        sets.sort_unstable();
        sets
    }

    /// Number of stored intermediates.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_intermediate_basics() {
        let i = Intermediate::from_scan(3, vec![10, 20, 30]);
        assert_eq!(i.width(), 1);
        assert_eq!(i.len(), 3);
        assert!(!i.is_empty());
        assert_eq!(i.rels(), &[3]);
        assert_eq!(i.rel_set(), RelSet::single(3));
        assert_eq!(i.slot_of(3), Some(0));
        assert_eq!(i.slot_of(1), None);
        assert_eq!(i.tuple(1), &[20]);
        assert_eq!(i.slot_count(), 3);
    }

    #[test]
    fn joined_intermediate() {
        let mut out = Intermediate::empty(vec![0, 2, 1]);
        assert_eq!(out.len(), 0);
        out.reserve(2);
        out.push_joined(&[5, 6], &[7]);
        out.push_joined(&[8, 9], &[10]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.width(), 3);
        assert_eq!(out.tuple(0), &[5, 6, 7]);
        assert_eq!(out.tuple(1), &[8, 9, 10]);
        assert_eq!(out.rel_set(), RelSet::from_iter([0, 1, 2]));
        let mut copy = Intermediate::empty(vec![0, 2, 1]);
        copy.push_tuple(out.tuple(1));
        assert_eq!(copy.len(), 1);
        assert_eq!(copy.tuple(0), &[8, 9, 10]);
    }

    #[test]
    fn empty_relation_list() {
        let i = Intermediate::empty(vec![]);
        assert_eq!(i.len(), 0);
        assert!(i.is_empty());
        assert_eq!(i.width(), 0);
    }

    #[test]
    fn chunked_assembly_matches_flat_layout() {
        // Three chunks of width 2, with an empty chunk dropped in between.
        let i = Intermediate::from_chunks(
            vec![4, 7],
            vec![vec![1, 2, 3, 4], vec![], vec![5, 6], vec![7, 8, 9, 10]],
        );
        assert_eq!(i.chunk_count(), 3);
        assert_eq!(i.len(), 5);
        assert_eq!(i.slot_count(), 10);
        let expected: Vec<&[RowId]> = vec![&[1, 2], &[3, 4], &[5, 6], &[7, 8], &[9, 10]];
        for (t, want) in expected.iter().enumerate() {
            assert_eq!(i.tuple(t), *want, "tuple {t}");
        }
        // Range iteration across a chunk boundary.
        let mid: Vec<&[RowId]> = i.slices_in(1..4).collect();
        assert_eq!(mid, vec![&[3u32, 4u32][..], &[5, 6], &[7, 8]]);
        assert_eq!(i.slices_in(0..5).map(<[RowId]>::len).sum::<usize>(), 10);
        assert_eq!(i.slices_in(5..5).count(), 0);
        // Appends after assembly still work (go to the last chunk).
        let mut i = i;
        i.push_tuple(&[11, 12]);
        assert_eq!(i.len(), 6);
        assert_eq!(i.tuple(5), &[11, 12]);
    }

    #[test]
    fn all_empty_chunks_collapse_to_empty() {
        let i = Intermediate::from_chunks(vec![0, 1], vec![vec![], vec![]]);
        assert_eq!(i.len(), 0);
        assert!(i.is_empty());
        assert_eq!(i.chunk_count(), 1);
    }

    #[test]
    fn morsel_ranges_cover_everything_in_order() {
        let i = Intermediate::from_scan(0, (0..10).collect());
        let ranges: Vec<_> = i.morsels(4).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        let one: Vec<_> = i.morsels(100).collect();
        assert_eq!(one, vec![0..10]);
        let empty = Intermediate::empty(vec![0]);
        assert_eq!(empty.morsels(4).count(), 0);
    }

    #[test]
    fn materialized_store_prunes_subsumed_sets() {
        let mut mat = Materialized::new();
        assert!(mat.is_empty());
        mat.insert(Intermediate::from_scan(0, vec![1, 2]));
        mat.insert(Intermediate::from_scan(2, vec![3]));
        assert_eq!(mat.len(), 2);
        assert!(mat.contains(RelSet::single(0)));
        assert_eq!(mat.get(RelSet::single(0)).unwrap().len(), 2);
        assert!(mat.get(RelSet::single(1)).is_none());

        // Inserting {0,1} subsumes {0} but leaves {2} alone.
        let mut joined = Intermediate::empty(vec![0, 1]);
        joined.push_tuple(&[1, 9]);
        mat.insert(joined);
        assert_eq!(mat.len(), 2);
        assert!(!mat.contains(RelSet::single(0)));
        assert!(mat.contains(RelSet::from_iter([0, 1])));
        assert!(mat.contains(RelSet::single(2)));
        assert_eq!(mat.sets(), vec![RelSet::from_iter([0, 1]), RelSet::single(2)]);

        // Re-inserting the same set replaces it without self-pruning.
        let mut replacement = Intermediate::empty(vec![0, 1]);
        replacement.push_tuple(&[4, 5]);
        replacement.push_tuple(&[6, 7]);
        mat.insert(replacement);
        assert_eq!(mat.get(RelSet::from_iter([0, 1])).unwrap().len(), 2);
    }
}
