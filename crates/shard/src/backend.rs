//! Pluggable shard backends: where a shard's verbs actually execute.
//!
//! The ring decides *which* shard owns a key; a [`ShardBackend`] decides
//! *how* that shard serves it. The mixed-backend ladder, bottom up: a
//! [`PrecisionStore`] owned in-process (implemented here); a whole
//! [`ShardedStore`] fleet (also here — a ring of backends is a backend,
//! so fleets nest); the runtime crate's actor handle; the wire crate's
//! pipelined remote client. One [`ShardedStore`] can mix all four behind
//! the same ring, and elastic resharding
//! ([`ShardedStore::add_shard_backend`](crate::ShardedStore::add_shard_backend) /
//! [`ShardedStore::remove_shard`](crate::ShardedStore::remove_shard))
//! moves resident keys between them with full protocol state.
//!
//! Every method takes `&mut self` and returns `Result` even where the
//! local store could answer infallibly from `&self`: a remote backend
//! performs I/O for each verb, and the trait is shaped for the most
//! constrained implementor.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use apcache_core::TimeMs;
use apcache_queries::AggregateKind;
use apcache_store::{
    AggregateOutcome, Constraint, KeyState, PolicySpec, PrecisionStore, ReadResult, StoreError,
    StoreMetrics, WriteOutcome,
};

use crate::store::ShardedStore;

/// One shard's executor: the four serving verbs plus the population and
/// migration surface elastic resharding needs.
pub trait ShardBackend<K> {
    /// Read `key` to the given precision.
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, StoreError>;

    /// Push a new exact value for `key`.
    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, StoreError>;

    /// Apply a batch of writes in slice order (all-or-nothing validation).
    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, StoreError>;

    /// Bounded aggregate over keys this shard owns.
    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, StoreError>;

    /// A snapshot of the shard's serving metrics.
    fn metrics_snapshot(&mut self) -> Result<StoreMetrics<K>, StoreError>;

    /// Register a new source (with an optional per-key policy override).
    fn insert(
        &mut self,
        key: K,
        value: f64,
        spec: Option<PolicySpec>,
        now: TimeMs,
    ) -> Result<(), StoreError>;

    /// Whether `key` has a registered source on this shard.
    fn contains_key(&mut self, key: &K) -> Result<bool, StoreError>;

    /// Every key registered on this shard, in registration order.
    fn key_list(&mut self) -> Result<Vec<K>, StoreError>;

    /// Detach the given keys with their complete protocol state (the
    /// export half of migration). Fails atomically: an unknown key
    /// (`UnknownKey`) or a key named twice (`DuplicateKey`) exports
    /// nothing.
    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, StoreError>;

    /// Attach keys previously detached from another shard (the import
    /// half of migration).
    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), StoreError>;
}

/// Boxed backends are backends, so one ring can mix heterogeneous shards
/// — `ShardedStore<K, Box<dyn ShardBackend<K> + Send>>` routes some
/// slots to in-process stores, some to runtime deployments, some to
/// remote servers, and elastic resharding migrates keys between them.
impl<K> ShardBackend<K> for Box<dyn ShardBackend<K> + Send> {
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, StoreError> {
        (**self).read(key, constraint, now)
    }

    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, StoreError> {
        (**self).write(key, value, now)
    }

    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, StoreError> {
        (**self).write_batch(items, now)
    }

    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, StoreError> {
        (**self).aggregate(kind, keys, constraint, now)
    }

    fn metrics_snapshot(&mut self) -> Result<StoreMetrics<K>, StoreError> {
        (**self).metrics_snapshot()
    }

    fn insert(
        &mut self,
        key: K,
        value: f64,
        spec: Option<PolicySpec>,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        (**self).insert(key, value, spec, now)
    }

    fn contains_key(&mut self, key: &K) -> Result<bool, StoreError> {
        (**self).contains_key(key)
    }

    fn key_list(&mut self) -> Result<Vec<K>, StoreError> {
        (**self).key_list()
    }

    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, StoreError> {
        (**self).export_keys(keys)
    }

    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), StoreError> {
        (**self).import_keys(states)
    }
}

impl<K: Hash + Ord + Clone> ShardBackend<K> for PrecisionStore<K> {
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, StoreError> {
        PrecisionStore::read(self, key, constraint, now)
    }

    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, StoreError> {
        PrecisionStore::write(self, key, value, now)
    }

    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, StoreError> {
        PrecisionStore::write_batch(self, items, now)
    }

    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, StoreError> {
        PrecisionStore::aggregate(self, kind, keys, constraint, now)
    }

    fn metrics_snapshot(&mut self) -> Result<StoreMetrics<K>, StoreError> {
        Ok(PrecisionStore::metrics(self).clone())
    }

    fn insert(
        &mut self,
        key: K,
        value: f64,
        spec: Option<PolicySpec>,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        match spec {
            Some(spec) => PrecisionStore::insert_with_policy(self, key, value, spec, now),
            None => PrecisionStore::insert(self, key, value, now),
        }
    }

    fn contains_key(&mut self, key: &K) -> Result<bool, StoreError> {
        Ok(PrecisionStore::contains_key(self, key))
    }

    fn key_list(&mut self) -> Result<Vec<K>, StoreError> {
        Ok(PrecisionStore::keys(self).cloned().collect())
    }

    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, StoreError> {
        PrecisionStore::export_keys(self, keys)
    }

    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), StoreError> {
        for state in states {
            self.import_key(state)?;
        }
        Ok(())
    }
}

/// A ring of backends is a backend: a whole fleet can sit behind the wire
/// crate's call-reply `StoreServer`, under the simulator's cost
/// accounting, or as one slot of an outer ring. The five serving verbs
/// are the fleet's own (routing, batch grouping, aggregate fan-out); the
/// migration surface routes every key to its owning slot.
impl<K: Hash + Ord + Clone, B: ShardBackend<K>> ShardBackend<K> for ShardedStore<K, B> {
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, StoreError> {
        ShardedStore::read(self, key, constraint, now)
    }

    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, StoreError> {
        ShardedStore::write(self, key, value, now)
    }

    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, StoreError> {
        ShardedStore::write_batch(self, items, now)
    }

    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, StoreError> {
        ShardedStore::aggregate(self, kind, keys, constraint, now)
    }

    fn metrics_snapshot(&mut self) -> Result<StoreMetrics<K>, StoreError> {
        ShardedStore::metrics_snapshot(self)
    }

    fn insert(
        &mut self,
        key: K,
        value: f64,
        spec: Option<PolicySpec>,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        match spec {
            Some(spec) => ShardedStore::insert_with_policy(self, key, value, spec, now),
            None => ShardedStore::insert(self, key, value, now),
        }
    }

    fn contains_key(&mut self, key: &K) -> Result<bool, StoreError> {
        let slot = self.slot_of(key);
        self.shards[slot].contains_key(key)
    }

    /// Slot by slot, each backend's own order within its slot.
    fn key_list(&mut self) -> Result<Vec<K>, StoreError> {
        let mut keys = Vec::new();
        for shard in &mut self.shards {
            keys.extend(shard.key_list()?);
        }
        Ok(keys)
    }

    /// The whole set is checked against the owning slots first — an
    /// unknown or repeated key detaches nothing anywhere — then each slot
    /// exports its share in one call. States return in request order.
    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, StoreError> {
        let mut per_slot: Vec<Vec<K>> = vec![Vec::new(); self.shards.len()];
        let mut seen = HashSet::with_capacity(keys.len());
        for key in keys {
            let slot = self.slot_of(key);
            if !self.shards[slot].contains_key(key)? {
                return Err(StoreError::UnknownKey);
            }
            if !seen.insert(key) {
                return Err(StoreError::DuplicateKey);
            }
            per_slot[slot].push(key.clone());
        }
        let mut detached: HashMap<K, KeyState<K>> = HashMap::with_capacity(keys.len());
        for (slot, batch) in per_slot.into_iter().enumerate() {
            if !batch.is_empty() {
                for state in self.shards[slot].export_keys(&batch)? {
                    detached.insert(state.key.clone(), state);
                }
            }
        }
        Ok(keys
            .iter()
            .map(|key| detached.remove(key).expect("every pre-checked key was exported"))
            .collect())
    }

    /// A key already resident on its owning slot, or carried twice in
    /// `states`, rejects the batch before any slot imports anything.
    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), StoreError> {
        let mut per_slot: Vec<Vec<KeyState<K>>> = Vec::new();
        per_slot.resize_with(self.shards.len(), Vec::new);
        let mut seen = HashSet::with_capacity(states.len());
        for state in states {
            let slot = self.slot_of(&state.key);
            if self.shards[slot].contains_key(&state.key)? || !seen.insert(state.key.clone()) {
                return Err(StoreError::DuplicateKey);
            }
            per_slot[slot].push(state);
        }
        for (slot, batch) in per_slot.into_iter().enumerate() {
            if !batch.is_empty() {
                self.shards[slot].import_keys(batch)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRouter;
    use crate::store::ShardedStoreBuilder;
    use apcache_store::InitialWidth;

    type Boxed = Box<dyn ShardBackend<u64> + Send>;

    fn fleet(shards: usize, keys: impl Iterator<Item = u64>) -> ShardedStore<u64> {
        let mut b = ShardedStoreBuilder::new()
            .shards(shards)
            .vnodes(32)
            .initial_width(InitialWidth::Fixed(10.0));
        for k in keys {
            b = b.source(k, 100.0 * k as f64);
        }
        b.build().unwrap()
    }

    #[test]
    fn keys_round_trip_between_two_fleets_all_or_nothing() {
        let mut src = fleet(3, 0..24);
        let mut reference = fleet(3, 0..24);
        for s in [&mut src, &mut reference] {
            for k in 0..24u64 {
                s.write(&k, 100.0 * k as f64 + 500.0, 10).unwrap(); // escape → VR
                s.read(&k, Constraint::Absolute(5.0), 20).unwrap(); // QR
            }
        }
        // An unknown or repeated key detaches nothing on any shard.
        for (keys, unknown) in [(&[1u64, 2, 99][..], true), (&[5, 6, 5], false), (&[7, 7], false)] {
            let err = ShardBackend::export_keys(&mut src, keys).unwrap_err();
            assert_eq!(matches!(err, StoreError::UnknownKey), unknown, "{keys:?}: {err}");
            assert_eq!(matches!(err, StoreError::DuplicateKey), !unknown, "{keys:?}: {err}");
            assert_eq!(ShardBackend::key_list(&mut src).unwrap().len(), 24, "{keys:?}");
        }
        // Request order is kept whatever slots serve the keys.
        let moving: Vec<u64> = vec![17, 3, 8, 21, 0];
        let states = ShardBackend::export_keys(&mut src, &moving).unwrap();
        assert_eq!(states.iter().map(|s| s.key).collect::<Vec<_>>(), moving);
        assert_eq!(src.len(), 19);
        assert!(!ShardBackend::contains_key(&mut src, &17).unwrap());

        let mut dst = fleet(2, 100..104);
        ShardBackend::import_keys(&mut dst, states.clone()).unwrap();
        let counters = dst.metrics_snapshot().unwrap();
        for k in &moving {
            assert_eq!(dst.value(k), reference.value(k), "key {k}");
            assert_eq!(dst.internal_width(k), reference.internal_width(k), "key {k}");
            assert_eq!(dst.cached_interval(k, 20), reference.cached_interval(k, 20), "key {k}");
            assert_eq!(counters.for_key(k), reference.metrics().merged().for_key(k), "key {k}");
        }
        // A resident key, or one key carried twice, installs nothing.
        assert!(matches!(
            ShardBackend::import_keys(&mut dst, states),
            Err(StoreError::DuplicateKey)
        ));
        let one = ShardBackend::export_keys(&mut dst, &[17]).unwrap();
        let twice = vec![one[0].clone(), one[0].clone()];
        assert!(matches!(
            ShardBackend::import_keys(&mut dst, twice),
            Err(StoreError::DuplicateKey)
        ));
        assert_eq!(dst.len(), 8);
    }

    #[test]
    fn a_fleet_nests_as_one_slot_of_an_outer_ring() {
        // Outer ring of two slots: a plain store and a whole 3-shard fleet.
        let empty =
            || ShardedStoreBuilder::new().vnodes(32).initial_width(InitialWidth::Fixed(10.0));
        let (_, mut lone) = empty().build().unwrap().into_parts();
        let parts: Vec<(u32, Boxed)> =
            vec![(0, Box::new(lone.remove(0))), (1, Box::new(empty().shards(3).build().unwrap()))];
        let mut nested =
            ShardedStore::from_routed_parts(ShardRouter::new(2, 32).unwrap(), parts).unwrap();
        let mut flat = fleet(4, 0..32);
        for k in 0..32u64 {
            nested.insert(k, 100.0 * k as f64, 0).unwrap();
        }
        let on_inner = (0..32u64).filter(|k| nested.shard_of(k) == 1).count();
        assert!((1..32).contains(&on_inner), "{on_inner} of 32 keys on the inner fleet");

        // θ = 1: per-key protocol state is key-local, so point traffic
        // answers identically wherever the key lives.
        let mut truth: Vec<f64> = (0..32).map(|k| 100.0 * k as f64).collect();
        for t in 1..=20u64 {
            for k in 0..32u64 {
                truth[k as usize] += ((k * 7 + t * 13) % 23) as f64 - 11.0;
                let (v, now) = (truth[k as usize], t * 1_000);
                assert_eq!(nested.write(&k, v, now).unwrap(), flat.write(&k, v, now).unwrap());
                let delta = Constraint::Absolute(((k + t) % 5) as f64 * 3.0);
                let (a, b) =
                    (nested.read(&k, delta, now).unwrap(), flat.read(&k, delta, now).unwrap());
                assert_eq!((a.answer, a.refreshed), (b.answer, b.refreshed), "read {k}@{t}");
            }
        }
        // Budgets split differently across a nested ring, so refresh sets
        // need not match the flat fleet — but every answer must meet its
        // constraint and contain the true value.
        let keys: Vec<u64> = (0..32).collect();
        let sum: f64 = truth.iter().sum();
        let max = truth.iter().cloned().fold(f64::MIN, f64::max);
        for (kind, want) in [(AggregateKind::Sum, sum), (AggregateKind::Max, max)] {
            for delta in [200.0, 20.0, 0.0] {
                let out =
                    nested.aggregate(kind, &keys, Constraint::Absolute(delta), 21_000).unwrap();
                assert!(out.answer.width() <= delta + 1e-9, "{kind:?} δ={delta}");
                assert!(out.answer.contains(want), "{kind:?} δ={delta}: {:?} ∌ {want}", out.answer);
            }
        }
    }
}
