//! A chained hash table whose size is chosen from a cardinality estimate.
//!
//! PostgreSQL up to 9.4 sizes the in-memory hash table of a hash join from
//! the optimizer's cardinality estimate of the build side; a severe
//! underestimate produces an undersized table with long collision chains and
//! therefore slow probes (Section 4.1 / Figure 6 of the paper).  Version 9.5
//! resizes the table at runtime.  [`ChainedHashTable`] reproduces both
//! behaviours behind a `rehash` flag.

use qob_storage::RowId;

/// One entry of the chained hash table: a join key and the index of the
/// build-side tuple that produced it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: i64,
    tuple: u32,
    next: u32,
}

const NO_ENTRY: u32 = u32::MAX;

/// An empty bucket word: no chain, no tag bits.
const EMPTY_BUCKET: u64 = NO_ENTRY as u64;

/// A chained hash table over `i64` join keys.
///
/// Each bucket is one `u64` word: the index of the chain's first entry in
/// the low half and a 32-bit Bloom tag of the chain's keys in the high half
/// (one bit per key, from hash bits the bucket index does not use).  A probe
/// whose tag bit is clear skips the chain without touching `entries`.  Tags
/// only filter: chain contents and order are exactly those of an untagged
/// table, and a chain whose tag has saturated is walked as before.
#[derive(Debug)]
pub struct ChainedHashTable {
    buckets: Vec<u64>,
    entries: Vec<Entry>,
    rehash: bool,
    resize_count: usize,
}

pub(crate) fn bucket_count_for(estimate: f64) -> usize {
    // One bucket per estimated row, rounded up to a power of two, with a
    // small floor so even a 1-row estimate gets a usable table.
    let target = estimate.max(1.0).min((1u64 << 30) as f64) as usize;
    target.next_power_of_two().max(16)
}

#[inline]
fn hash(key: i64) -> u64 {
    // Multiplicative hashing (Fibonacci constant).
    (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The bucket of hash `h` in a table of `bucket_count` (a power of two,
/// at most 2^31) buckets: the top bits of the hash.
#[inline]
fn bucket_of_hash(h: u64, bucket_count: usize) -> usize {
    (h >> (64 - bucket_count.trailing_zeros())) as usize & (bucket_count - 1)
}

/// The tag bit of hash `h`, positioned in the high half of a bucket word.
/// Bits 28..33 of the hash lie below every bucket index (at most 31 bits
/// taken from the top).
#[inline]
fn tag_of_hash(h: u64) -> u64 {
    1u64 << (32 + ((h >> 28) & 31))
}

/// Links entry `index` (whose key hashes to `h`) at the head of the chain
/// held in `bucket`, returning the previous head.
#[inline]
fn link(bucket: &mut u64, h: u64, index: u32) -> u32 {
    let next = *bucket as u32;
    *bucket = (*bucket & !EMPTY_BUCKET) | tag_of_hash(h) | index as u64;
    next
}

/// The bucket a key hashes to in a table of `bucket_count` (power of two)
/// buckets — shared by the table itself and the partition-wise parallel
/// builder, which must agree on the mapping.
#[inline]
pub(crate) fn bucket_for(key: i64, bucket_count: usize) -> usize {
    bucket_of_hash(hash(key), bucket_count)
}

/// `runs[m][p]`: the `(key, build tuple)` pairs of morsel `m` that fall in
/// partition `p`, in ascending tuple order.
pub type PartitionRuns = [Vec<Vec<(i64, u32)>>];

/// One partition's disjoint slices of the shared table, handed to a worker.
struct PartitionInsert<'a> {
    /// This partition's contiguous bucket range.
    buckets: &'a mut [u64],
    /// First global bucket index of the range.
    bucket_base: usize,
    /// This partition's contiguous entry range.
    entries: &'a mut [Entry],
    /// Global entry index of `entries[0]` (chain links are global).
    entry_base: u32,
    /// Which partition of every morsel's runs this worker inserts.
    partition: usize,
    runs: &'a PartitionRuns,
}

impl PartitionInsert<'_> {
    fn run(self, bucket_count: usize) {
        let pairs = self.runs.iter().flat_map(|morsel| &morsel[self.partition]);
        for (i, &(key, tuple)) in pairs.enumerate() {
            let h = hash(key);
            let bucket = &mut self.buckets[bucket_of_hash(h, bucket_count) - self.bucket_base];
            let next = link(bucket, h, self.entry_base + i as u32);
            self.entries[i] = Entry { key, tuple, next };
        }
    }
}

impl ChainedHashTable {
    /// Creates a table sized for `estimated_rows` build tuples.  When
    /// `rehash` is true the table doubles itself whenever the load factor
    /// exceeds 2 (the PostgreSQL 9.5 behaviour); otherwise the initial size
    /// is kept no matter how many rows arrive (the ≤ 9.4 behaviour).
    pub fn with_estimate(estimated_rows: f64, rehash: bool) -> Self {
        ChainedHashTable {
            buckets: vec![EMPTY_BUCKET; bucket_count_for(estimated_rows)],
            entries: Vec::new(),
            rehash,
            resize_count: 0,
        }
    }

    /// Builds the table from per-morsel partition runs with up to `threads`
    /// concurrent partition-wise inserts on `pool`.
    ///
    /// `bucket_count` and the partition count (`runs[m].len()`, equal for
    /// every morsel) must be powers of two with partitions ≤ `bucket_count`;
    /// partition `p` must hold exactly the keys whose `bucket_for` falls in
    /// `p`'s contiguous bucket range.  Each partition owns disjoint bucket
    /// and entry ranges, so inserts need no synchronisation.  Concatenating
    /// the runs in morsel order yields each partition's pairs in ascending
    /// tuple order, which makes every bucket chain identical to a sequential
    /// build's, so probes yield matches in the same order whichever path
    /// built the table.
    pub fn from_partitions(
        bucket_count: usize,
        rehash: bool,
        runs: &PartitionRuns,
        threads: usize,
        pool: &crate::scheduler::WorkerPool,
    ) -> Self {
        let parts = runs.first().map_or(1, Vec::len);
        debug_assert!(bucket_count.is_power_of_two());
        debug_assert!(parts.is_power_of_two() && parts <= bucket_count);
        debug_assert!(runs.iter().all(|morsel| morsel.len() == parts));
        let sizes: Vec<usize> =
            (0..parts).map(|p| runs.iter().map(|morsel| morsel[p].len()).sum()).collect();
        let mut buckets = vec![EMPTY_BUCKET; bucket_count];
        let mut entries = vec![Entry { key: 0, tuple: 0, next: NO_ENTRY }; sizes.iter().sum()];
        let stride = bucket_count / parts;

        // Carve the shared arrays into per-partition disjoint slices.
        let mut work: Vec<PartitionInsert<'_>> = Vec::with_capacity(parts);
        let mut bucket_rest: &mut [u64] = &mut buckets;
        let mut entry_rest: &mut [Entry] = &mut entries;
        let mut entry_base = 0u32;
        for (p, &size) in sizes.iter().enumerate() {
            let (bucket_slice, rest) = bucket_rest.split_at_mut(stride);
            bucket_rest = rest;
            let (entry_slice, rest) = entry_rest.split_at_mut(size);
            entry_rest = rest;
            work.push(PartitionInsert {
                buckets: bucket_slice,
                bucket_base: p * stride,
                entries: entry_slice,
                entry_base,
                partition: p,
                runs,
            });
            entry_base += size as u32;
        }

        let workers = threads.min(work.len()).max(1);
        let queue: Vec<parking_lot::Mutex<Option<PartitionInsert<'_>>>> =
            work.into_iter().map(|w| parking_lot::Mutex::new(Some(w))).collect();
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let panicked = pool.run_tasks(workers, &|_slot| loop {
            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(slot) = queue.get(i) else { break };
            if let Some(w) = slot.lock().take() {
                w.run(bucket_count);
            }
        });
        // Partition inserts are pure slice writes and cannot fail for valid
        // inputs; an incomplete table must never be served.
        assert!(!panicked, "partition insert panicked");
        ChainedHashTable { buckets, entries, rehash, resize_count: 0 }
    }

    /// Inserts a `(key, build tuple index)` pair.
    pub fn insert(&mut self, key: i64, tuple: u32) {
        if self.rehash && self.entries.len() >= self.buckets.len() * 2 {
            self.grow();
        }
        let h = hash(key);
        let bucket = bucket_of_hash(h, self.buckets.len());
        let next = link(&mut self.buckets[bucket], h, self.entries.len() as u32);
        self.entries.push(Entry { key, tuple, next });
    }

    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        self.buckets = vec![EMPTY_BUCKET; new_size];
        self.resize_count += 1;
        // Re-link all entries into the new buckets.
        for (i, e) in self.entries.iter_mut().enumerate() {
            let h = hash(e.key);
            e.next = link(&mut self.buckets[bucket_of_hash(h, new_size)], h, i as u32);
        }
    }

    /// The first entry of `key`'s chain, or [`NO_ENTRY`] when the bucket is
    /// empty or its tag rules the key out.
    #[inline]
    fn head(&self, key: i64) -> u32 {
        let h = hash(key);
        let word = self.buckets[bucket_of_hash(h, self.buckets.len())];
        if word & tag_of_hash(h) == 0 {
            NO_ENTRY
        } else {
            word as u32
        }
    }

    /// Iterates over the build tuple indices whose key equals `key`.
    pub fn probe(&self, key: i64) -> ProbeIter<'_> {
        ProbeIter { table: self, current: self.head(key), key }
    }

    /// Probes a batch of keys in one pass over the buckets: `hits` receives
    /// `(position in keys, chain head)` for every non-NULL key whose bucket
    /// may hold it, in key order.  Walk each chain with
    /// [`ChainedHashTable::chain`].
    pub(crate) fn probe_batch(&self, keys: &[Option<i64>], hits: &mut Vec<(u32, u32)>) {
        hits.clear();
        for (i, key) in keys.iter().enumerate() {
            if let Some(key) = *key {
                let head = self.head(key);
                if head != NO_ENTRY {
                    hits.push((i as u32, head));
                }
            }
        }
    }

    /// Iterates over the matches of `key` from a chain head returned by
    /// [`ChainedHashTable::probe_batch`] for that key.
    #[inline]
    pub(crate) fn chain(&self, head: u32, key: i64) -> ProbeIter<'_> {
        ProbeIter { table: self, current: head, key }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buckets currently allocated.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// How often the table resized itself (0 unless `rehash` is enabled).
    pub fn resize_count(&self) -> usize {
        self.resize_count
    }

    /// The average chain length over non-empty buckets — the direct cause of
    /// slow probes when the table is undersized.
    pub fn avg_chain_length(&self) -> f64 {
        let non_empty = self.buckets.iter().filter(|b| **b as u32 != NO_ENTRY).count();
        if non_empty == 0 {
            0.0
        } else {
            self.entries.len() as f64 / non_empty as f64
        }
    }
}

/// Iterator over matching build tuples for one probe key.
pub struct ProbeIter<'a> {
    table: &'a ChainedHashTable,
    current: u32,
    key: i64,
}

impl Iterator for ProbeIter<'_> {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        while self.current != NO_ENTRY {
            let e = &self.table.entries[self.current as usize];
            self.current = e.next;
            if e.key == self.key {
                return Some(e.tuple);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_probe() {
        let mut t = ChainedHashTable::with_estimate(100.0, false);
        t.insert(5, 0);
        t.insert(5, 1);
        t.insert(7, 2);
        let mut five: Vec<RowId> = t.probe(5).collect();
        five.sort_unstable();
        assert_eq!(five, vec![0, 1]);
        assert_eq!(t.probe(7).collect::<Vec<_>>(), vec![2]);
        assert!(t.probe(99).next().is_none());
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn undersized_table_without_rehash_grows_chains() {
        // Estimate of 1 row, but 10_000 rows arrive.
        let mut t = ChainedHashTable::with_estimate(1.0, false);
        for i in 0..10_000 {
            t.insert(i, i as u32);
        }
        assert_eq!(t.bucket_count(), 16, "size fixed by the estimate");
        assert_eq!(t.resize_count(), 0);
        assert!(t.avg_chain_length() > 100.0, "long chains, got {}", t.avg_chain_length());
        // Probes still return correct results.
        assert_eq!(t.probe(1234).collect::<Vec<_>>(), vec![1234]);
    }

    #[test]
    fn rehash_keeps_chains_short() {
        let mut t = ChainedHashTable::with_estimate(1.0, true);
        for i in 0..10_000 {
            t.insert(i, i as u32);
        }
        assert!(t.resize_count() > 5, "table grew at runtime");
        assert!(t.bucket_count() >= 4096);
        assert!(t.avg_chain_length() < 4.0, "short chains, got {}", t.avg_chain_length());
        assert_eq!(t.probe(9999).collect::<Vec<_>>(), vec![9999]);
        assert_eq!(t.probe(10_001).count(), 0);
    }

    #[test]
    fn accurate_estimate_needs_no_resize_even_with_rehash() {
        let mut t = ChainedHashTable::with_estimate(10_000.0, true);
        for i in 0..10_000 {
            t.insert(i % 500, i as u32);
        }
        assert_eq!(t.resize_count(), 0);
        assert_eq!(t.probe(3).count(), 20);
    }

    #[test]
    fn duplicate_heavy_keys() {
        let mut t = ChainedHashTable::with_estimate(64.0, true);
        for i in 0..1000 {
            t.insert(42, i);
        }
        assert_eq!(t.probe(42).count(), 1000);
        assert_eq!(t.probe(41).count(), 0);
    }

    #[test]
    fn negative_and_extreme_keys() {
        let mut t = ChainedHashTable::with_estimate(8.0, true);
        for (i, k) in [-1i64, i64::MIN, i64::MAX, 0, 1].iter().enumerate() {
            t.insert(*k, i as u32);
        }
        assert_eq!(t.probe(i64::MIN).collect::<Vec<_>>(), vec![1]);
        assert_eq!(t.probe(i64::MAX).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.probe(-1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn partitioned_build_matches_sequential_probe_order() {
        // Skewed keys (many duplicates) plus unique keys.
        let pairs: Vec<(i64, u32)> = (0..5_000u32).map(|t| ((t as i64) % 613 - 300, t)).collect();
        let mut seq = ChainedHashTable::with_estimate(5_000.0, false);
        for &(k, t) in &pairs {
            seq.insert(k, t);
        }
        let bucket_count = seq.bucket_count();
        let pool = crate::scheduler::WorkerPool::new(3);
        for partition_count in [1usize, 4, 16] {
            let stride = bucket_count / partition_count;
            let mut partitions: Vec<Vec<(i64, u32)>> = vec![Vec::new(); partition_count];
            for &(k, t) in &pairs {
                partitions[bucket_for(k, bucket_count) / stride].push((k, t));
            }
            let par =
                ChainedHashTable::from_partitions(bucket_count, false, &[partitions], 4, &pool);
            assert_eq!(par.len(), seq.len());
            assert_eq!(par.bucket_count(), seq.bucket_count());
            for key in -310..320 {
                let s: Vec<RowId> = seq.probe(key).collect();
                let p: Vec<RowId> = par.probe(key).collect();
                assert_eq!(s, p, "probe order differs for key {key} at P={partition_count}");
            }
        }
    }

    /// Splits `pairs` (ascending tuple order) into morsels of `morsel`
    /// pairs, each split by partition the way the parallel build does.
    fn morsel_runs(
        pairs: &[(i64, u32)],
        morsel: usize,
        parts: usize,
        bucket_count: usize,
    ) -> Vec<Vec<Vec<(i64, u32)>>> {
        let stride = bucket_count / parts;
        pairs
            .chunks(morsel)
            .map(|chunk| {
                let mut split = vec![Vec::new(); parts];
                for &(k, t) in chunk {
                    split[bucket_for(k, bucket_count) / stride].push((k, t));
                }
                split
            })
            .collect()
    }

    fn key_strategy() -> impl Strategy<Value = Option<i64>> {
        prop_oneof![
            4 => proptest::option::of(-6i64..6),
            2 => proptest::option::of(any::<i64>()),
            1 => Just(Some(i64::MIN)),
            1 => Just(Some(i64::MAX)),
            2 => proptest::option::of(-1_000_000i64..0),
        ]
    }

    proptest! {
        /// The table against a naive model: `probe(k)` yields exactly the
        /// model's tuples for `k`, newest first (the chain order), for the
        /// sequential build under both rehash settings and for the
        /// partition-wise build at 1–8 partitions and any morsel split.
        /// NULL rows consume a tuple index but are never inserted, as in a
        /// hash build.
        #[test]
        fn table_matches_naive_model(
            keys in prop::collection::vec(key_strategy(), 0..300),
            estimate in 1u32..400,
            morsel in 1usize..64,
        ) {
            let model: Vec<(i64, u32)> = keys
                .iter()
                .enumerate()
                .filter_map(|(t, k)| Some(((*k)?, t as u32)))
                .collect();
            let expected = |key: i64| -> Vec<RowId> {
                model.iter().rev().filter(|(k, _)| *k == key).map(|(_, t)| *t).collect()
            };
            let mut probes: Vec<i64> = model.iter().map(|(k, _)| *k).collect();
            probes.extend(model.iter().map(|(k, _)| k.wrapping_add(1)));
            probes.extend([0, -1, 1, i64::MIN, i64::MAX, 7]);

            let mut tables = Vec::new();
            let pool = crate::scheduler::WorkerPool::new(2);
            for rehash in [false, true] {
                let mut seq = ChainedHashTable::with_estimate(estimate as f64, rehash);
                for &(k, t) in &model {
                    seq.insert(k, t);
                }
                let bucket_count = seq.bucket_count();
                tables.push((format!("insert rehash={rehash}"), seq));
                for parts in [1usize, 2, 4, 8] {
                    let runs = morsel_runs(&model, morsel, parts, bucket_count);
                    let par = ChainedHashTable::from_partitions(bucket_count, rehash, &runs, 3, &pool);
                    tables.push((format!("partitions={parts} rehash={rehash}"), par));
                }
            }
            for (name, table) in &tables {
                prop_assert_eq!(table.len(), model.len(), "{name}");
                let mut hits = Vec::new();
                table.probe_batch(&probes.iter().map(|&k| Some(k)).collect::<Vec<_>>(), &mut hits);
                for (i, &key) in probes.iter().enumerate() {
                    let want = expected(key);
                    prop_assert_eq!(table.probe(key).collect::<Vec<_>>(), want.clone(), "{name} key {key}");
                    let head = hits.iter().find(|(j, _)| *j as usize == i).map(|(_, h)| *h);
                    // A tag may rule a key out, but never one that is there.
                    prop_assert!(want.is_empty() || head.is_some(), "{name}: tag hid key {key}");
                    let batched: Vec<RowId> =
                        head.map(|h| table.chain(h, key).collect()).unwrap_or_default();
                    prop_assert_eq!(batched, want, "{name} batched key {key}");
                }
            }
        }
    }

    #[test]
    fn bucket_sizing_from_estimates() {
        assert_eq!(bucket_count_for(0.0), 16);
        assert_eq!(bucket_count_for(1.0), 16);
        assert_eq!(bucket_count_for(1000.0), 1024);
        assert_eq!(bucket_count_for(1025.0), 2048);
    }
}
