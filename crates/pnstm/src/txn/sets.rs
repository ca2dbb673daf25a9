//! Read and write sets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::stripes::{stripe_of, StripeTable, STRIPE_COUNT};
use crate::vbox::{filter_bits, mix_id, AnyVBox, BoxId, ErasedValue};

/// Hasher for box-id keys: the [`mix_id`] avalanche of the `u64` id. Box ids
/// are process-unique counters, not attacker-chosen, so SipHash's DoS
/// resistance buys nothing here and costs most of a set insert.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = mix_id(id);
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdHasher only hashes u64 box ids");
    }
}

/// A map keyed by box id, hashed with [`IdHasher`].
type IdMap<V> = HashMap<BoxId, V, BuildHasherDefault<IdHasher>>;

/// The set of commit stripes a read or write set's boxes map to, one bit per
/// stripe: a set insert is one `or`, a union one `or` per word, and
/// iteration yields each stripe once, ascending, without sorting.
#[derive(Default, Clone, Copy)]
struct StripeBits([u64; STRIPE_COUNT / 64]);

impl StripeBits {
    fn insert(&mut self, id: BoxId) {
        let s = stripe_of(id);
        self.0[s / 64] |= 1 << (s % 64);
    }

    fn union(&mut self, other: &StripeBits) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine |= theirs;
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// One tentative write: the target box (type-erased) and the value.
#[derive(Clone)]
pub(crate) struct WsEntry {
    pub vbox: Arc<dyn AnyVBox>,
    pub value: ErasedValue,
}

/// The tentative writes of one transaction (top-level or nested).
///
/// Held as `Arc<WriteSet>` by its owning [`crate::Txn`]: the owner mutates it
/// copy-on-write (`Arc::make_mut` — in-place while it holds the only
/// reference, which is the entire life of a transaction outside `parallel()`)
/// and publishes the `Arc` as an immutable snapshot to its children, who read
/// it without any locking. `Clone` exists solely to back that copy-on-write.
#[derive(Default, Clone)]
pub(crate) struct WriteSet {
    entries: IdMap<WsEntry>,
    /// Bloom filter over the inserted box ids ([`filter_bits`] positions).
    /// Never reset by removal — entries are only ever inserted or the whole
    /// set cleared — so it always over-approximates membership.
    filter: u64,
    stripes: StripeBits,
}

impl WriteSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn insert(&mut self, vbox: Arc<dyn AnyVBox>, value: ErasedValue) {
        let id = vbox.id();
        self.filter |= filter_bits(id);
        self.stripes.insert(id);
        self.entries.insert(id, WsEntry { vbox, value });
    }

    /// The Bloom filter word over every inserted box id. A probe whose
    /// [`filter_bits`] are not all present here can skip [`WriteSet::get`].
    pub(crate) fn filter(&self) -> u64 {
        self.filter
    }

    pub(crate) fn get(&self, id: BoxId) -> Option<ErasedValue> {
        self.entries.get(&id).map(|e| Arc::clone(&e.value))
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &WsEntry> {
        self.entries.values()
    }

    /// The stripes this write set touches, sorted and deduplicated — the
    /// canonical acquisition order of the striped commit path.
    pub(crate) fn stripe_footprint(&self) -> Vec<usize> {
        self.stripes.iter().collect()
    }

    /// Retained for the filter-reset contract (retry drivers now swap in a
    /// fresh `Arc<WriteSet>` instead of clearing in place).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.filter = 0;
        self.stripes = StripeBits::default();
    }
}

/// The boxes a transaction has read (outside its own write set).
///
/// Validation only needs the box handle — multi-version reads are compared
/// against version clocks, not against the values that were read. A read set
/// moves up the nesting tree with [`ReadSet::absorb`] and is never copied.
/// `stripes` holds the commit stripes its boxes map to, so the top-level
/// commit validates each read stripe once instead of once per read.
#[derive(Default)]
pub(crate) struct ReadSet {
    entries: IdMap<Arc<dyn AnyVBox>>,
    stripes: StripeBits,
}

impl ReadSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, vbox: Arc<dyn AnyVBox>) {
        let id = vbox.id();
        self.stripes.insert(id);
        self.entries.entry(id).or_insert(vbox);
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&BoxId, &Arc<dyn AnyVBox>)> {
        self.entries.iter()
    }

    /// Union `other` into this set, by move: the smaller map's entries are
    /// inserted into the larger one (swapping the two maps first when this
    /// set is the smaller), and the stripe bitmaps are or'ed.
    pub(crate) fn absorb(&mut self, mut other: ReadSet) {
        if self.entries.len() < other.entries.len() {
            std::mem::swap(&mut self.entries, &mut other.entries);
        }
        for (id, vbox) in other.entries {
            self.entries.entry(id).or_insert(vbox);
        }
        self.stripes.union(&other.stripes);
    }

    /// Striped validation: every read stripe is unlocked (or in `held`) with
    /// a stamp `<= rv`. [`StripeTable::read_valid`] depends only on
    /// `(stripe, rv, held)`, so checking each stripe once gives the verdict
    /// of checking it once per read box.
    pub(crate) fn stripes_valid(&self, table: &StripeTable, rv: u64, held: &[usize]) -> bool {
        self.stripes.iter().all(|s| table.read_valid(s, rv, held))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbox::VBox;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::OnceLock;

    #[test]
    fn write_set_last_write_wins() {
        let b = VBox::new_raw(0i32);
        let mut ws = WriteSet::new();
        ws.insert(b.as_any(), Arc::new(1i32));
        ws.insert(b.as_any(), Arc::new(2i32));
        assert_eq!(ws.len(), 1);
        let v = ws.get(b.id()).unwrap();
        assert_eq!(*v.downcast_ref::<i32>().unwrap(), 2);
    }

    #[test]
    fn write_set_miss_returns_none() {
        let ws = WriteSet::new();
        assert!(ws.get(12345).is_none());
        assert!(ws.is_empty());
    }

    #[test]
    fn stripe_footprint_is_sorted_and_deduped() {
        let mut ws = WriteSet::new();
        let boxes: Vec<VBox<i32>> = (0..64).map(|_| VBox::new_raw(0)).collect();
        for b in &boxes {
            ws.insert(b.as_any(), Arc::new(1i32));
            ws.insert(b.as_any(), Arc::new(2i32));
        }
        let fp = ws.stripe_footprint();
        assert!(!fp.is_empty());
        assert!(fp.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        assert!(fp.iter().all(|&s| s < crate::stripes::STRIPE_COUNT));
        let all: Vec<&VBox<i32>> = boxes.iter().collect();
        assert_eq!(fp, stripes_of(&all), "exactly the written boxes' stripes");
        ws.clear();
        assert!(ws.stripe_footprint().is_empty(), "clear resets the footprint");
    }

    #[test]
    fn write_set_filter_tracks_inserts_and_clears() {
        let mut ws = WriteSet::new();
        assert_eq!(ws.filter(), 0, "empty set admits nothing");
        let boxes: Vec<VBox<i32>> = (0..8).map(|_| VBox::new_raw(0)).collect();
        for b in &boxes {
            ws.insert(b.as_any(), Arc::new(1i32));
        }
        for b in &boxes {
            let bits = crate::vbox::filter_bits(b.id());
            assert_eq!(ws.filter() & bits, bits, "no false negatives for members");
        }
        ws.clear();
        assert_eq!(ws.filter(), 0, "clear resets the filter");
    }

    #[test]
    fn write_set_clone_snapshots_entries() {
        let b = VBox::new_raw(0i32);
        let mut ws = WriteSet::new();
        ws.insert(b.as_any(), Arc::new(1i32));
        let snap = ws.clone();
        ws.insert(b.as_any(), Arc::new(2i32));
        assert_eq!(*snap.get(b.id()).unwrap().downcast_ref::<i32>().unwrap(), 1);
        assert_eq!(*ws.get(b.id()).unwrap().downcast_ref::<i32>().unwrap(), 2);
    }

    #[test]
    fn read_set_dedups() {
        let b = VBox::new_raw(0i32);
        let mut rs = ReadSet::new();
        rs.record(b.as_any());
        rs.record(b.as_any());
        assert_eq!(rs.len(), 1);
    }

    fn ids(rs: &ReadSet) -> BTreeSet<BoxId> {
        rs.iter().map(|(id, _)| *id).collect()
    }

    fn stripe_set(rs: &ReadSet) -> Vec<usize> {
        rs.stripes.iter().collect()
    }

    fn stripes_of(boxes: &[&VBox<i32>]) -> Vec<usize> {
        let set: BTreeSet<usize> = boxes.iter().map(|b| stripe_of(b.id())).collect();
        set.into_iter().collect()
    }

    #[test]
    fn read_set_records_its_stripes() {
        let boxes: Vec<VBox<i32>> = (0..40).map(|_| VBox::new_raw(0)).collect();
        let mut rs = ReadSet::new();
        assert_eq!(stripe_set(&rs), Vec::<usize>::new());
        for b in &boxes {
            rs.record(b.as_any());
        }
        let all: Vec<&VBox<i32>> = boxes.iter().collect();
        assert_eq!(stripe_set(&rs), stripes_of(&all), "ascending, one entry per stripe");
    }

    #[test]
    fn absorb_into_smaller_swaps_and_unions() {
        let (a, b, c) = (VBox::new_raw(0i32), VBox::new_raw(0i32), VBox::new_raw(0i32));
        let mut small = ReadSet::new();
        small.record(a.as_any());
        let mut large = ReadSet::new();
        large.record(a.as_any());
        large.record(b.as_any());
        large.record(c.as_any());
        small.absorb(large);
        assert_eq!(small.len(), 3, "the duplicate id is kept once");
        assert_eq!(ids(&small), [a.id(), b.id(), c.id()].into_iter().collect());
        assert_eq!(stripe_set(&small), stripes_of(&[&a, &b, &c]), "bitmaps are or'ed");
    }

    #[test]
    fn absorb_into_larger_inserts_and_unions() {
        let (a, b, c) = (VBox::new_raw(0i32), VBox::new_raw(0i32), VBox::new_raw(0i32));
        let mut large = ReadSet::new();
        large.record(a.as_any());
        large.record(b.as_any());
        let mut small = ReadSet::new();
        small.record(b.as_any());
        small.record(c.as_any());
        large.absorb(small);
        assert_eq!(large.len(), 3, "the duplicate id is kept once");
        assert_eq!(ids(&large), [a.id(), b.id(), c.id()].into_iter().collect());
        assert_eq!(stripe_set(&large), stripes_of(&[&a, &b, &c]), "bitmaps are or'ed");
    }

    #[test]
    fn absorb_of_empty_sets_is_identity() {
        let a = VBox::new_raw(0i32);
        let mut rs = ReadSet::new();
        rs.absorb(ReadSet::new());
        assert_eq!(rs.len(), 0);
        assert_eq!(stripe_set(&rs), Vec::<usize>::new());
        rs.record(a.as_any());
        rs.absorb(ReadSet::new());
        let mut empty = ReadSet::new();
        empty.absorb(rs);
        assert_eq!(ids(&empty), [a.id()].into_iter().collect());
        assert_eq!(stripe_set(&empty), stripes_of(&[&a]));
    }

    /// The pool covers every `POOL_STRIDE`-th stripe (16 stripes, spread
    /// over all bitmap words) with ~8 boxes each, so random picks often read
    /// several boxes on one stripe.
    const POOL_STRIDE: usize = STRIPE_COUNT / 16;

    fn pool() -> &'static [VBox<i32>] {
        static POOL: OnceLock<Vec<VBox<i32>>> = OnceLock::new();
        POOL.get_or_init(|| {
            std::iter::repeat_with(|| VBox::new_raw(0i32))
                .filter(|b| stripe_of(b.id()).is_multiple_of(POOL_STRIDE))
                .take(128)
                .collect()
        })
    }

    proptest! {
        /// Differential check of striped validation: validating each read
        /// stripe once (the stripe bitmap of a read set built in two halves
        /// and joined with `absorb`) gives the same verdict as validating
        /// every read box's stripe, over random stripe words — locked or
        /// not, stamps on both sides of `rv` — and random held lists.
        #[test]
        fn stripe_set_validation_matches_per_read_validation(
            picks in proptest::collection::vec(0usize..128, 0..24),
            split in 0usize..24,
            words in proptest::collection::vec((0usize..16, 0u64..=4, 0u8..3), 0..6),
            held in proptest::collection::vec(0usize..16, 0..4),
            rv in 1u64..=3,
        ) {
            let pool = pool();
            let table = StripeTable::new();
            let mut word_of = BTreeMap::new();
            for (slot, stamp, lock) in words {
                word_of.insert(slot * POOL_STRIDE, (stamp, lock == 0));
            }
            for (&stripe, &(stamp, locked)) in &word_of {
                table.acquire_sorted(&[stripe]);
                table.release_committed(&[stripe], stamp);
                if locked {
                    table.acquire_sorted(&[stripe]);
                }
            }
            let held: BTreeSet<usize> = held.into_iter().map(|slot| slot * POOL_STRIDE).collect();
            let held: Vec<usize> = held.into_iter().collect();

            let split = split.min(picks.len());
            let (mut rs, mut rest) = (ReadSet::new(), ReadSet::new());
            for &i in &picks[..split] {
                rs.record(pool[i].as_any());
            }
            for &i in &picks[split..] {
                rest.record(pool[i].as_any());
            }
            rs.absorb(rest);

            let read_stripes: BTreeSet<usize> =
                picks.iter().map(|&i| stripe_of(pool[i].id())).collect();
            prop_assert_eq!(stripe_set(&rs), read_stripes.into_iter().collect::<Vec<_>>());
            let per_read =
                picks.iter().all(|&i| table.read_valid(stripe_of(pool[i].id()), rv, &held));
            prop_assert_eq!(rs.stripes_valid(&table, rv, &held), per_read);
        }
    }
}
