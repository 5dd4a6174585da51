//! Cache-side protocol object.
//!
//! A [`Cache`] holds up to `κ` approximations. When space runs out it
//! evicts the entry with the *widest internal width* — "the least precise
//! approximations … contribute least to overall cache precision" (paper,
//! Section 2). Eviction decisions use original (internal) widths, not the
//! 0/∞ widths produced by thresholds, and no notification is sent to
//! sources; an evicted approximation that incurs a refresh may be
//! re-admitted if it is no longer the widest.
//!
//! **Unbounded** caches store entries in a dense slot table indexed by
//! the key's protocol id — [`Key`]s are interned, dense ids throughout
//! the workspace (the store allocates them `0, 1, 2, …`), so the hot
//! read path costs one bounds-checked index instead of a hash lookup.
//! Callers minting their own [`Key`]s should keep the ids dense: the
//! table grows to the largest id ever cached.
//!
//! **κ-bounded** caches route through an id → slot indirection instead:
//! at most `κ` slots are ever allocated, reused through a free list, so
//! eviction churn over a million-key registered population keeps the
//! cache's footprint at O(κ), not O(largest id) — the dense table would
//! otherwise grow to the whole key space while holding κ residents. The
//! lookup pays one hash, which a bounded cache already tolerates (its
//! misses dominate); the unbounded hot path keeps the dense table.

use std::collections::{BTreeSet, HashMap};

use crate::error::ProtocolError;
use crate::interval::Interval;
use crate::policy::ApproxSpec;
use crate::source::Refresh;
use crate::{Key, TimeMs};

/// A cached approximation plus its eviction ordering key.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The approximation installed by the last refresh.
    pub spec: ApproxSpec,
    /// The source policy's internal width at refresh time.
    pub internal_width: f64,
}

/// Outcome of applying a refresh message to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The key was already cached; its entry was replaced in place.
    Updated,
    /// The key was admitted into spare capacity.
    Inserted,
    /// The key was admitted and the given key was evicted to make room.
    InsertedEvicting(Key),
    /// The cache is full and the new approximation is at least as wide as
    /// every resident entry; it stays uncached (paper: "the modified
    /// approximation may still be the widest and remain uncached").
    Rejected,
}

/// Total-order key for widths inside the eviction index. `f64::total_cmp`
/// gives a total order; constructors reject NaN widths so the exotic
/// orderings never arise.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdWidth(f64);

impl Eq for OrdWidth {}

impl PartialOrd for OrdWidth {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdWidth {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Entry storage: dense for unbounded caches (id-indexed, zero hashing
/// on the hot path), indirected for κ-bounded caches (at most κ slots
/// ever allocated, ids resolved through a resident-only hash index).
#[derive(Debug)]
enum Slots {
    /// Dense slot table indexed by `Key::0`; `None` marks uncached ids.
    /// Grows to the largest id ever cached — only safe when the cache
    /// holds (close to) the whole registered population anyway.
    Dense(Vec<Option<CacheEntry>>),
    /// κ-bounded indirection: `index[id] → slot`, `entries[slot]` holds
    /// `(key, entry)`, and vacated slots are recycled through `free`.
    /// `entries.len()` never exceeds κ, whatever the id range.
    Bounded {
        /// Resident ids only: `Key::0` → slot in `entries`.
        index: HashMap<u32, u32>,
        /// Slot storage; `None` marks a freed slot awaiting reuse.
        entries: Vec<Option<(Key, CacheEntry)>>,
        /// Freed slot indices, popped before `entries` grows.
        free: Vec<u32>,
    },
}

/// Bounded store of interval approximations with widest-first eviction.
///
/// Unbounded caches key a dense slot table by interned id, so reads are
/// one bounds-checked index (no hashing on the hot path); κ-bounded
/// caches resolve ids through an indirection whose storage stays O(κ)
/// regardless of the registered key population (see the module docs).
#[derive(Debug)]
pub struct Cache {
    capacity: usize,
    slots: Slots,
    /// Number of resident approximations (`<= capacity`).
    len: usize,
    /// Secondary index ordered by (internal width, key) for O(log n)
    /// widest-entry lookup. Kept strictly in sync with `slots`.
    by_width: BTreeSet<(OrdWidth, Key)>,
}

impl Cache {
    /// Create a cache holding at most `capacity >= 1` approximations.
    /// Bounded caches store entries behind an id → slot indirection so
    /// their footprint is O(κ) even under eviction churn across a huge
    /// key space.
    pub fn new(capacity: usize) -> Result<Self, ProtocolError> {
        if capacity == 0 {
            return Err(ProtocolError::ZeroCapacity);
        }
        let slots = if capacity == usize::MAX {
            Slots::Dense(Vec::new())
        } else {
            Slots::Bounded { index: HashMap::new(), entries: Vec::new(), free: Vec::new() }
        };
        Ok(Cache { capacity, slots, len: 0, by_width: BTreeSet::new() })
    }

    /// Create a cache that never evicts (capacity `usize::MAX`), stored
    /// densely: the whole population is expected to become resident, so
    /// the id-indexed table is the fastest and tightest layout.
    pub fn unbounded() -> Self {
        Cache {
            capacity: usize::MAX,
            slots: Slots::Dense(Vec::new()),
            len: 0,
            by_width: BTreeSet::new(),
        }
    }

    /// Configured capacity `κ`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached approximations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is currently cached.
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// The cached entry for `key`, if any.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&CacheEntry> {
        match &self.slots {
            Slots::Dense(slots) => slots.get(key.0 as usize).and_then(Option::as_ref),
            Slots::Bounded { index, entries, .. } => index
                .get(&key.0)
                .and_then(|&slot| entries[slot as usize].as_ref())
                .map(|(_, entry)| entry),
        }
    }

    /// Mutable access to the cached entry for `key`, if any.
    fn get_mut(&mut self, key: Key) -> Option<&mut CacheEntry> {
        match &mut self.slots {
            Slots::Dense(slots) => slots.get_mut(key.0 as usize).and_then(Option::as_mut),
            Slots::Bounded { index, entries, .. } => index
                .get(&key.0)
                .and_then(|&slot| entries[slot as usize].as_mut())
                .map(|(_, entry)| entry),
        }
    }

    /// The concrete interval for `key` at time `now`; `None` if uncached.
    #[inline]
    pub fn interval_at(&self, key: Key, now: TimeMs) -> Option<Interval> {
        self.get(key).map(|e| e.spec.interval_at(now))
    }

    /// Width offered for `key` at time `now`. Uncached keys offer no
    /// information, i.e. infinite width (queries must bypass the cache).
    pub fn width_at(&self, key: Key, now: TimeMs) -> f64 {
        match self.get(key) {
            Some(e) => e.spec.width_at(now),
            None => f64::INFINITY,
        }
    }

    /// Iterate over cached (key, entry) pairs in ascending key order.
    /// (Bounded caches sort their κ residents per call; the dense table
    /// iterates in place.)
    pub fn iter(&self) -> impl Iterator<Item = (Key, &CacheEntry)> {
        let mut pairs: Vec<(Key, &CacheEntry)> = match &self.slots {
            Slots::Dense(slots) => slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.as_ref().map(|e| (Key(i as u32), e)))
                .collect(),
            Slots::Bounded { entries, .. } => {
                entries.iter().filter_map(|slot| slot.as_ref().map(|(k, e)| (*k, e))).collect()
            }
        };
        if matches!(self.slots, Slots::Bounded { .. }) {
            pairs.sort_unstable_by_key(|(k, _)| *k);
        }
        pairs.into_iter()
    }

    /// Number of slots the entry storage has allocated — the footprint
    /// diagnostic the κ-bound regression test asserts on: for bounded
    /// caches this never exceeds κ, however large the id space the cache
    /// has churned through; for unbounded caches it tracks the largest
    /// cached id (the whole population is expected resident).
    pub fn slot_table_len(&self) -> usize {
        match &self.slots {
            Slots::Dense(slots) => slots.len(),
            Slots::Bounded { entries, .. } => entries.len(),
        }
    }

    /// The currently widest entry (the eviction candidate).
    pub fn widest(&self) -> Option<(Key, f64)> {
        self.by_width.iter().next_back().map(|&(OrdWidth(w), k)| (k, w))
    }

    /// Apply a refresh message, enforcing capacity with widest-first
    /// eviction.
    pub fn apply_refresh(&mut self, refresh: Refresh) -> AdmitOutcome {
        let Refresh { key, spec, internal_width } = refresh;
        debug_assert!(!internal_width.is_nan(), "internal widths are never NaN");
        let entry = CacheEntry { spec, internal_width };
        if let Some(existing) = self.get_mut(key) {
            let old_width = existing.internal_width;
            *existing = entry;
            self.by_width.remove(&(OrdWidth(old_width), key));
            self.by_width.insert((OrdWidth(internal_width), key));
            return AdmitOutcome::Updated;
        }
        if self.len < self.capacity {
            self.install(key, entry);
            return AdmitOutcome::Inserted;
        }
        // Full: admit only if strictly narrower than the widest resident.
        let Some(&(OrdWidth(max_width), victim)) = self.by_width.iter().next_back() else {
            // capacity >= 1 and entries empty is handled above.
            return AdmitOutcome::Rejected;
        };
        if internal_width < max_width {
            self.remove(victim);
            self.install(key, entry);
            AdmitOutcome::InsertedEvicting(victim)
        } else {
            AdmitOutcome::Rejected
        }
    }

    /// Place `entry` into the (vacant) slot for `key` and index its
    /// width. Dense tables grow to reach the id; bounded tables recycle a
    /// freed slot before allocating, so their storage stays ≤ κ.
    fn install(&mut self, key: Key, entry: CacheEntry) {
        self.by_width.insert((OrdWidth(entry.internal_width), key));
        match &mut self.slots {
            Slots::Dense(slots) => {
                let slot = key.0 as usize;
                if slot >= slots.len() {
                    slots.resize_with(slot + 1, || None);
                }
                slots[slot] = Some(entry);
            }
            Slots::Bounded { index, entries, free } => {
                let slot = match free.pop() {
                    Some(slot) => slot,
                    None => {
                        entries.push(None);
                        (entries.len() - 1) as u32
                    }
                };
                entries[slot as usize] = Some((key, entry));
                index.insert(key.0, slot);
            }
        }
        self.len += 1;
    }

    /// Widen `key`'s cached interval to at least `width`, keeping it
    /// centered where it is — the truth-preserving degradation a lapsed
    /// TTL lease applies (the exact value provably lies inside the old
    /// interval, hence inside any widening of it). Returns the new
    /// interval, or `None` when the key is uncached or already at least
    /// that wide (widening never fabricates precision). The entry's
    /// internal width — the eviction ordering key — grows to match, so a
    /// degraded approximation is also the first eviction candidate.
    pub fn widen(&mut self, key: Key, width: f64, now: TimeMs) -> Option<Interval> {
        debug_assert!(!width.is_nan() && width >= 0.0);
        let entry = self.get(key)?;
        let current = entry.spec.interval_at(now);
        if current.width() >= width {
            return None;
        }
        // current.width() < width ≤ ∞ means both bounds are finite.
        let center = current.center().expect("finite-width interval has a center");
        let widened = Interval::centered(center, width).unwrap_or_else(|_| Interval::unbounded());
        let old_internal = entry.internal_width;
        let new_internal = old_internal.max(width);
        let entry = self.get_mut(key).expect("entry present above");
        entry.spec = ApproxSpec::Constant(widened);
        entry.internal_width = new_internal;
        self.by_width.remove(&(OrdWidth(old_internal), key));
        self.by_width.insert((OrdWidth(new_internal), key));
        Some(widened)
    }

    /// Remove an entry (used by eviction and by baseline protocols that
    /// drop replicas explicitly). Returns the removed entry.
    pub fn remove(&mut self, key: Key) -> Option<CacheEntry> {
        let entry = match &mut self.slots {
            Slots::Dense(slots) => slots.get_mut(key.0 as usize)?.take()?,
            Slots::Bounded { index, entries, free } => {
                let slot = index.remove(&key.0)?;
                free.push(slot);
                entries[slot as usize].take().expect("indexed slot occupied").1
            }
        };
        self.len -= 1;
        let removed = self.by_width.remove(&(OrdWidth(entry.internal_width), key));
        debug_assert!(removed, "width index out of sync for {key}");
        Some(entry)
    }

    /// Drop every entry (the slot storage keeps its allocation).
    pub fn clear(&mut self) {
        match &mut self.slots {
            Slots::Dense(slots) => slots.iter_mut().for_each(|slot| *slot = None),
            Slots::Bounded { index, entries, free } => {
                index.clear();
                free.clear();
                free.extend(0..entries.len() as u32);
                entries.iter_mut().for_each(|slot| *slot = None);
            }
        }
        self.len = 0;
        self.by_width.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refresh(key: u32, center: f64, width: f64) -> Refresh {
        Refresh {
            key: Key(key),
            spec: ApproxSpec::constant_centered(center, width),
            internal_width: width,
        }
    }

    #[test]
    fn capacity_validation() {
        assert!(Cache::new(0).is_err());
        assert!(Cache::new(1).is_ok());
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = Cache::new(4).unwrap();
        assert_eq!(c.apply_refresh(refresh(1, 10.0, 2.0)), AdmitOutcome::Inserted);
        assert!(c.contains(Key(1)));
        assert_eq!(c.width_at(Key(1), 0), 2.0);
        assert_eq!(c.width_at(Key(2), 0), f64::INFINITY);
        let iv = c.interval_at(Key(1), 0).unwrap();
        assert_eq!((iv.lo(), iv.hi()), (9.0, 11.0));
    }

    #[test]
    fn update_in_place_adjusts_width_index() {
        let mut c = Cache::new(2).unwrap();
        c.apply_refresh(refresh(1, 0.0, 10.0));
        c.apply_refresh(refresh(2, 0.0, 5.0));
        assert_eq!(c.widest(), Some((Key(1), 10.0)));
        assert_eq!(c.apply_refresh(refresh(1, 0.0, 1.0)), AdmitOutcome::Updated);
        assert_eq!(c.widest(), Some((Key(2), 5.0)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_widest_when_full() {
        let mut c = Cache::new(2).unwrap();
        c.apply_refresh(refresh(1, 0.0, 10.0));
        c.apply_refresh(refresh(2, 0.0, 5.0));
        // Narrower than the widest (10) → evict key 1.
        assert_eq!(c.apply_refresh(refresh(3, 0.0, 7.0)), AdmitOutcome::InsertedEvicting(Key(1)));
        assert!(!c.contains(Key(1)));
        assert!(c.contains(Key(2)));
        assert!(c.contains(Key(3)));
    }

    #[test]
    fn rejects_widest_newcomer() {
        let mut c = Cache::new(2).unwrap();
        c.apply_refresh(refresh(1, 0.0, 10.0));
        c.apply_refresh(refresh(2, 0.0, 5.0));
        // As wide as the current widest → stays uncached.
        assert_eq!(c.apply_refresh(refresh(3, 0.0, 10.0)), AdmitOutcome::Rejected);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(Key(3)));
        // Strictly wider is also rejected.
        assert_eq!(c.apply_refresh(refresh(4, 0.0, 11.0)), AdmitOutcome::Rejected);
    }

    #[test]
    fn eviction_uses_internal_not_effective_width() {
        // An entry snapped to width 0 (exact) can still be the eviction
        // victim if its internal width is the largest.
        let mut c = Cache::new(2).unwrap();
        let snapped = Refresh {
            key: Key(1),
            spec: ApproxSpec::constant_centered(0.0, 0.0), // effective: exact
            internal_width: 100.0,                         // internal: huge
        };
        c.apply_refresh(snapped);
        c.apply_refresh(refresh(2, 0.0, 5.0));
        assert_eq!(c.apply_refresh(refresh(3, 0.0, 7.0)), AdmitOutcome::InsertedEvicting(Key(1)));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = Cache::unbounded();
        for i in 0..1000 {
            assert_eq!(c.apply_refresh(refresh(i, 0.0, i as f64)), AdmitOutcome::Inserted);
        }
        assert_eq!(c.len(), 1000);
    }

    #[test]
    fn remove_and_clear_keep_index_consistent() {
        let mut c = Cache::new(4).unwrap();
        c.apply_refresh(refresh(1, 0.0, 3.0));
        c.apply_refresh(refresh(2, 0.0, 9.0));
        let e = c.remove(Key(2)).unwrap();
        assert_eq!(e.internal_width, 9.0);
        assert_eq!(c.widest(), Some((Key(1), 3.0)));
        assert!(c.remove(Key(2)).is_none());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.widest(), None);
    }

    #[test]
    fn width_ties_break_by_key_deterministically() {
        let mut c = Cache::new(2).unwrap();
        c.apply_refresh(refresh(1, 0.0, 5.0));
        c.apply_refresh(refresh(2, 0.0, 5.0));
        // Tie on width: the larger key sorts last in the BTreeSet and is
        // the designated victim.
        assert_eq!(c.widest(), Some((Key(2), 5.0)));
        assert_eq!(c.apply_refresh(refresh(3, 0.0, 4.0)), AdmitOutcome::InsertedEvicting(Key(2)));
    }

    #[test]
    fn bounded_slot_storage_stays_within_kappa_under_churn() {
        // The κ-bound regression (ROADMAP "capacity-bounded caches at
        // million-key scale"): a κ=8 cache churned across a ~1M-id key
        // space must keep its slot storage at O(κ), not O(largest id).
        const KAPPA: usize = 8;
        let mut c = Cache::new(KAPPA).unwrap();
        let mut admitted = 0u64;
        for round in 0u32..2_000 {
            // Ever-increasing ids, ever-narrowing widths, so each refresh
            // evicts the widest resident — maximum churn.
            let id = round * 499 + 1; // sparse ids up to ~1M
            let width = 1_000.0 / f64::from(round + 1);
            match c.apply_refresh(refresh(id, 0.0, width)) {
                AdmitOutcome::Inserted | AdmitOutcome::InsertedEvicting(_) => admitted += 1,
                AdmitOutcome::Updated | AdmitOutcome::Rejected => {}
            }
            assert!(c.len() <= KAPPA);
            assert!(
                c.slot_table_len() <= KAPPA,
                "slot storage {} exceeded κ={KAPPA} at round {round}",
                c.slot_table_len()
            );
        }
        assert!(admitted >= 1_000, "churn actually exercised eviction");
        assert_eq!(c.len(), KAPPA);
        // The width index survived the churn: residents and index agree.
        assert_eq!(c.iter().count(), KAPPA);
        let widest = c.widest().unwrap();
        assert!(c.contains(widest.0));
        // clear() recycles the slots instead of leaking them.
        c.clear();
        assert_eq!(c.len(), 0);
        c.apply_refresh(refresh(999_983, 0.0, 1.0));
        assert!(c.slot_table_len() <= KAPPA);
        // An unbounded cache keeps the dense layout (and its id-sized
        // table) — the documented trade.
        let mut dense = Cache::unbounded();
        dense.apply_refresh(refresh(10_000, 0.0, 1.0));
        assert_eq!(dense.slot_table_len(), 10_001);
    }

    #[test]
    fn bounded_iter_is_key_ordered_after_churn() {
        let mut c = Cache::new(4).unwrap();
        for id in [70u32, 10, 50, 30, 90, 20] {
            c.apply_refresh(refresh(id, 0.0, f64::from(id)));
        }
        let keys: Vec<u32> = c.iter().map(|(k, _)| k.0).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn widen_degrades_in_place_and_reorders_eviction() {
        let mut c = Cache::new(2).unwrap();
        c.apply_refresh(refresh(1, 10.0, 2.0));
        c.apply_refresh(refresh(2, 0.0, 5.0));
        // Narrower or equal targets are no-ops.
        assert!(c.widen(Key(1), 2.0, 0).is_none());
        assert!(c.widen(Key(1), 1.0, 0).is_none());
        assert!(c.widen(Key(9), 50.0, 0).is_none(), "uncached");
        // Widening keeps the center and grows the eviction key.
        let iv = c.widen(Key(1), 8.0, 0).unwrap();
        assert_eq!((iv.lo(), iv.hi()), (6.0, 14.0));
        assert_eq!(c.widest(), Some((Key(1), 8.0)));
        // Unbounded fallback: the interval claims nothing, and the entry
        // is now the designated eviction victim.
        let iv = c.widen(Key(1), f64::INFINITY, 0).unwrap();
        assert!(iv.is_unbounded());
        assert!(c.widen(Key(1), f64::INFINITY, 0).is_none(), "already unbounded");
        assert_eq!(c.apply_refresh(refresh(3, 0.0, 4.0)), AdmitOutcome::InsertedEvicting(Key(1)));
    }

    #[test]
    fn evicted_entry_readmitted_when_narrower() {
        // Paper: an evicted approximation that incurs a refresh may be
        // cached again, evicting another.
        let mut c = Cache::new(2).unwrap();
        c.apply_refresh(refresh(1, 0.0, 10.0));
        c.apply_refresh(refresh(2, 0.0, 8.0));
        assert_eq!(c.apply_refresh(refresh(3, 0.0, 9.0)), AdmitOutcome::InsertedEvicting(Key(1)));
        // Key 1 refreshes again, now narrow → re-admitted, evicting key 3.
        assert_eq!(c.apply_refresh(refresh(1, 0.0, 2.0)), AdmitOutcome::InsertedEvicting(Key(3)));
        assert!(c.contains(Key(1)));
        assert!(c.contains(Key(2)));
    }
}
