//! Relation sets: compact bitsets identifying join subexpressions.
//!
//! JOB queries join at most 17 relations, so a `u64` bitset suffices.  Every
//! optimizer component keys its per-subexpression state (cardinality
//! estimates, true cardinalities, dynamic-programming tables) on a
//! [`RelSet`], and the hot per-statement maps ([`RelSetMap`]) hash it with
//! [`RelSetHasher`].

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A set of base relations of one query, stored as a bitset.
///
/// Relation indices refer to positions in [`crate::QuerySpec::relations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RelSet(u64);

impl RelSet {
    /// Maximum number of relations representable.
    pub const MAX_RELS: usize = 64;

    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        RelSet(0)
    }

    /// The singleton set `{rel}`.
    ///
    /// # Panics
    /// Panics if `rel >= 64`.
    #[inline]
    pub fn single(rel: usize) -> Self {
        assert!(rel < Self::MAX_RELS, "relation index {rel} out of range");
        RelSet(1u64 << rel)
    }

    /// The set `{0, 1, ..., n-1}` of the first `n` relations.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn first_n(n: usize) -> Self {
        assert!(n <= Self::MAX_RELS, "relation count {n} out of range");
        if n == 64 {
            RelSet(u64::MAX)
        } else {
            RelSet((1u64 << n) - 1)
        }
    }

    /// Constructs a set from raw bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        RelSet(bits)
    }

    /// The raw bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// True if the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of relations in the set.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if `rel` is a member.
    #[inline]
    pub fn contains(self, rel: usize) -> bool {
        rel < Self::MAX_RELS && (self.0 >> rel) & 1 == 1
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersect(self, other: RelSet) -> RelSet {
        RelSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub const fn minus(self, other: RelSet) -> RelSet {
        RelSet(self.0 & !other.0)
    }

    /// Adds a relation, returning the new set.
    #[inline]
    pub fn with(self, rel: usize) -> RelSet {
        self.union(RelSet::single(rel))
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub const fn is_subset_of(self, other: RelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the two sets share no relation.
    #[inline]
    pub const fn is_disjoint(self, other: RelSet) -> bool {
        self.0 & other.0 == 0
    }

    /// True if the two sets share at least one relation.
    #[inline]
    pub const fn intersects(self, other: RelSet) -> bool {
        self.0 & other.0 != 0
    }

    /// The smallest relation index in the set, if non-empty.
    #[inline]
    pub fn min_rel(self) -> Option<usize> {
        if self.is_empty() {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// The largest relation index in the set, if non-empty.
    #[inline]
    pub fn max_rel(self) -> Option<usize> {
        if self.is_empty() {
            None
        } else {
            Some(63 - self.0.leading_zeros() as usize)
        }
    }

    /// Iterates over the member relation indices in increasing order.
    pub fn iter(self) -> RelSetIter {
        RelSetIter(self.0)
    }

    /// All non-empty subsets of this set, in increasing bit order.
    ///
    /// Intended for small sets (dynamic programming over query relations).
    pub fn subsets(self) -> SubsetIter {
        SubsetIter { superset: self.0, current: 0, done: self.0 == 0 }
    }

    /// Number of joins a subexpression over this set contains (`len - 1`,
    /// or 0 for the empty/singleton set).
    #[inline]
    pub fn join_count(self) -> usize {
        self.len().saturating_sub(1)
    }
}

impl FromIterator<usize> for RelSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = RelSet::empty();
        for rel in iter {
            s = s.with(rel);
        }
        s
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, rel) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{rel}")?;
        }
        write!(f, "}}")
    }
}

/// A map keyed by relation set, hashed with [`RelSetHasher`]: the
/// dynamic-programming tables and the planner's estimate memo, which probe
/// it a few times per csg-cmp pair.
pub type RelSetMap<V> = HashMap<RelSet, V, BuildHasherDefault<RelSetHasher>>;

/// The hasher of [`RelSetMap`]: one 64×64→128-bit multiply of the set's
/// bits by an odd constant, folded to 64 bits (high half xor low half), so
/// every input bit reaches both the low bits that pick a bucket and the high
/// bits the table's control bytes use.
///
/// It is a map hasher, not a checksum: it is fast on one `u64`, but neither
/// stable across versions nor meant to be stored or compared across
/// processes (that is FNV-1a's job, `qob_storage::encoding::fnv1a64`), and
/// it is not keyed, so it is for keys a query builds, not for keys a client
/// chooses.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelSetHasher(u64);

impl RelSetHasher {
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for RelSetHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Iterator over the members of a [`RelSet`].
#[derive(Debug, Clone)]
pub struct RelSetIter(u64);

impl Iterator for RelSetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let rel = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(rel)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RelSetIter {}

/// Iterator over all non-empty subsets of a [`RelSet`].
///
/// Uses the standard `(sub - superset) & superset` enumeration trick, which
/// visits every subset of the superset exactly once.
#[derive(Debug, Clone)]
pub struct SubsetIter {
    superset: u64,
    current: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = RelSet;

    fn next(&mut self) -> Option<RelSet> {
        if self.done {
            return None;
        }
        self.current = self.current.wrapping_sub(self.superset) & self.superset;
        if self.current == 0 {
            self.done = true;
            return None;
        }
        Some(RelSet(self.current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_algebra() {
        let a = RelSet::from_iter([0, 2, 5]);
        let b = RelSet::from_iter([2, 3]);
        assert_eq!(a.len(), 3);
        assert!(a.contains(2));
        assert!(!a.contains(1));
        assert_eq!(a.union(b), RelSet::from_iter([0, 2, 3, 5]));
        assert_eq!(a.intersect(b), RelSet::single(2));
        assert_eq!(a.minus(b), RelSet::from_iter([0, 5]));
        assert!(RelSet::single(2).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert!(a.intersects(b));
        assert!(!a.is_disjoint(b));
        assert!(a.minus(b).is_disjoint(b));
        assert_eq!(a.min_rel(), Some(0));
        assert_eq!(RelSet::empty().min_rel(), None);
        assert_eq!(a.max_rel(), Some(5));
        assert_eq!(RelSet::single(63).max_rel(), Some(63));
        assert_eq!(RelSet::empty().max_rel(), None);
    }

    #[test]
    fn relset_map_hashes_every_bit() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<RelSetHasher>::default();
        // Single-relation sets differ in both the low (bucket) and the high
        // (control byte) bits of their hashes.
        let hashes: Vec<u64> = (0..64).map(|r| build.hash_one(RelSet::single(r))).collect();
        let low: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let high: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() >= 48, "{} distinct low bytes", low.len());
        assert!(high.len() >= 40, "{} distinct top-7-bit tags", high.len());
        let mut map: RelSetMap<usize> = RelSetMap::default();
        for bits in 0..1024u64 {
            map.insert(RelSet::from_bits(bits), bits as usize);
        }
        assert!((0..1024u64).all(|bits| map[&RelSet::from_bits(bits)] == bits as usize));
    }

    #[test]
    fn first_n_and_join_count() {
        assert_eq!(RelSet::first_n(0), RelSet::empty());
        assert_eq!(RelSet::first_n(3), RelSet::from_iter([0, 1, 2]));
        assert_eq!(RelSet::first_n(64).len(), 64);
        assert_eq!(RelSet::first_n(5).join_count(), 4);
        assert_eq!(RelSet::empty().join_count(), 0);
        assert_eq!(RelSet::single(3).join_count(), 0);
    }

    #[test]
    fn iteration_order() {
        let s = RelSet::from_iter([7, 1, 4]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 4, 7]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn subset_enumeration_is_complete() {
        let s = RelSet::from_iter([0, 3, 5]);
        let subs: Vec<RelSet> = s.subsets().collect();
        assert_eq!(subs.len(), 7, "2^3 - 1 non-empty subsets");
        for sub in &subs {
            assert!(sub.is_subset_of(s));
            assert!(!sub.is_empty());
        }
        let unique: std::collections::HashSet<u64> = subs.iter().map(|s| s.bits()).collect();
        assert_eq!(unique.len(), 7);
        assert!(subs.contains(&s), "superset itself is enumerated");
    }

    #[test]
    fn subsets_of_empty_set() {
        assert_eq!(RelSet::empty().subsets().count(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(RelSet::from_iter([0, 2]).to_string(), "{0,2}");
        assert_eq!(RelSet::empty().to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_out_of_range_panics() {
        let _ = RelSet::single(64);
    }

    #[test]
    fn with_and_from_bits() {
        let s = RelSet::empty().with(3).with(9);
        assert_eq!(s, RelSet::from_bits((1 << 3) | (1 << 9)));
        assert_eq!(s.bits(), (1 << 3) | (1 << 9));
    }
}
