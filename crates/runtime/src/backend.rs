//! [`RuntimeHandle`] as a [`ShardBackend`]: a whole actor-per-shard
//! deployment serving as *one* shard of an outer
//! [`ShardedStore`](apcache_shard::ShardedStore) ring.
//!
//! This is the middle rung of the mixed-backend ladder: the outer ring
//! can route some shards to in-process [`PrecisionStore`]s, some to live
//! runtimes (this impl), and some to remote servers (the wire crate's
//! client impl) — and elastic resharding moves resident keys between all
//! of them through the same `export_keys`/`import_keys` surface.
//!
//! ## What migration carries, and what it visibly ends
//!
//! The generic backend contract moves [`KeyState`] — the paper's full
//! per-key protocol state (value, policy spec + adaptive width, source
//! spec, cached interval, per-key metrics). Push-side bindings cannot
//! cross the trait boundary: a subscription's sink is a live in-process
//! channel with no generic representation. So when the *outer* ring
//! migrates a key out of a runtime deployment, that key's inner
//! subscriptions end **visibly** (each streaming ticket settles with
//! `SubscriptionEnded`) and its TTL lease is released — never a silently
//! stale watch on a departed key. Intra-runtime migration
//! ([`Runtime::add_shard`](crate::Runtime::add_shard) /
//! [`Runtime::remove_shard`](crate::Runtime::remove_shard)) is the richer
//! path that carries leases and live watches along.
//!
//! [`PrecisionStore`]: apcache_store::PrecisionStore

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use apcache_core::TimeMs;
use apcache_queries::AggregateKind;
use apcache_shard::ShardBackend;
use apcache_store::{
    AggregateOutcome, Constraint, KeyState, PolicySpec, ReadResult, StoreError, StoreMetrics,
    WriteOutcome,
};

use crate::error::RuntimeError;
use crate::oneshot::reply_slot;
use crate::request::{MigrationBundle, Request};
use crate::runtime::RuntimeHandle;

/// Fold a runtime-layer failure into the store-error surface the trait
/// speaks: store errors pass through verbatim; runtime-infrastructure
/// failures (closed mailboxes, dead actors) surface as configuration
/// errors naming the cause.
fn store_err(e: RuntimeError) -> StoreError {
    match e {
        RuntimeError::Store(e) => e,
        other => StoreError::Config(format!("runtime backend unavailable: {other}")),
    }
}

fn closed() -> StoreError {
    store_err(RuntimeError::Closed)
}

fn actor_gone() -> StoreError {
    store_err(RuntimeError::ActorGone)
}

/// The migration surface as inherent `&self` methods, so callers that
/// hold the handle behind an `Arc` (the wire crate's pipelined server
/// serves migration verbs straight off its connection handle) can reach
/// it without exclusive access. The [`ShardBackend`] impl below
/// delegates here.
impl<K: Hash + Ord + Clone + Send + Sync + 'static> RuntimeHandle<K> {
    /// Every key registered across the deployment, sorted.
    ///
    /// The directory is a set with no registration order; sorted is the
    /// deterministic substitute (migration batches built from this list
    /// must be reproducible run to run).
    pub fn sorted_keys(&self) -> Vec<K> {
        let mut keys: Vec<K> =
            self.shared.keys.read().expect("key directory lock poisoned").iter().cloned().collect();
        keys.sort();
        keys
    }

    /// Detach `keys` with their complete protocol state — the export half
    /// of cross-backend migration. Fails atomically: a single unknown key
    /// (`UnknownKey`) or a key named twice (`DuplicateKey`) exports
    /// nothing.
    ///
    /// Leases and watches cannot cross the generic boundary: each
    /// exported key's watches end visibly (their streaming tickets settle
    /// with `SubscriptionEnded`) and its lease is dropped — never a
    /// silently stale binding on a departed key.
    pub fn export_key_states(&self, keys: &[K]) -> Result<Vec<KeyState<K>>, StoreError> {
        // Whole-set pre-check against the directory so an unknown or
        // repeated key exports nothing on any shard (the atomicity
        // contract).
        {
            let dir = self.shared.keys.read().expect("key directory lock poisoned");
            let mut seen = HashSet::with_capacity(keys.len());
            for key in keys {
                if !dir.contains(key) {
                    return Err(StoreError::UnknownKey);
                }
                if !seen.insert(key) {
                    return Err(StoreError::DuplicateKey);
                }
            }
        }
        let topo = self.shared.topology.read().expect("topology lock poisoned");
        let mut per_slot: Vec<Vec<K>> = vec![Vec::new(); topo.senders.len()];
        for key in keys {
            per_slot[topo.slot_for_key(key)].push(key.clone());
        }
        let mut detached: HashMap<K, KeyState<K>> = HashMap::with_capacity(keys.len());
        for (slot, batch) in per_slot.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (reply, rx) = reply_slot();
            topo.senders[slot]
                .send(Request::Export { keys: batch, reply })
                .map_err(|_| closed())?;
            let bundle = rx.recv().map_err(|_| actor_gone())??;
            // Dropping each watch's sink settles its streaming ticket
            // with SubscriptionEnded — the subscriber observes the end
            // and can resubscribe wherever the key lands. Never silent.
            drop((bundle.leases, bundle.watches));
            for entry in bundle.entries {
                detached.insert(entry.key.clone(), entry);
            }
        }
        drop(topo);
        let mut dir = self.shared.keys.write().expect("key directory lock poisoned");
        for key in keys {
            dir.remove(key);
        }
        drop(dir);
        // Hand back in the caller's order, whatever slots served them.
        Ok(keys
            .iter()
            .map(|key| detached.remove(key).expect("every pre-checked key was exported"))
            .collect())
    }

    /// Attach keys previously detached elsewhere — the import half of
    /// cross-backend migration.
    pub fn import_key_states(&self, states: Vec<KeyState<K>>) -> Result<(), StoreError> {
        let topo = self.shared.topology.read().expect("topology lock poisoned");
        let mut per_slot: Vec<Vec<KeyState<K>>> = Vec::new();
        per_slot.resize_with(topo.senders.len(), Vec::new);
        for state in states {
            let slot = topo.slot_for_key(&state.key);
            per_slot[slot].push(state);
        }
        let mut installed: Vec<K> = Vec::new();
        for (slot, batch) in per_slot.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let keys: Vec<K> = batch.iter().map(|state| state.key.clone()).collect();
            let bundle = MigrationBundle { entries: batch, ..MigrationBundle::default() };
            let (ack, rx) = reply_slot();
            topo.senders[slot].send(Request::Install { bundle, ack }).map_err(|_| closed())?;
            rx.recv().map_err(|_| actor_gone())??;
            installed.extend(keys);
        }
        drop(topo);
        self.shared.keys.write().expect("key directory lock poisoned").extend(installed);
        Ok(())
    }
}

impl<K: Hash + Ord + Clone + Send + Sync + 'static> ShardBackend<K> for RuntimeHandle<K> {
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, StoreError> {
        RuntimeHandle::read(self, key, constraint, now).map_err(store_err)
    }

    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, StoreError> {
        RuntimeHandle::write(self, key, value, now).map_err(store_err)
    }

    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, StoreError> {
        RuntimeHandle::write_batch(self, items, now).map_err(store_err)
    }

    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, StoreError> {
        RuntimeHandle::aggregate(self, kind, keys, constraint, now).map_err(store_err)
    }

    fn metrics_snapshot(&mut self) -> Result<StoreMetrics<K>, StoreError> {
        RuntimeHandle::metrics(self).map(|m| m.merged().clone()).map_err(store_err)
    }

    fn insert(
        &mut self,
        _key: K,
        _value: f64,
        _spec: Option<PolicySpec>,
        _now: TimeMs,
    ) -> Result<(), StoreError> {
        Err(StoreError::Config(
            "a runtime deployment serves a fixed key population: register sources at build \
             time, or migrate them in via import_keys (elastic insertion is a follow-on)"
                .into(),
        ))
    }

    fn contains_key(&mut self, key: &K) -> Result<bool, StoreError> {
        Ok(RuntimeHandle::contains_key(self, key))
    }

    fn key_list(&mut self) -> Result<Vec<K>, StoreError> {
        Ok(self.sorted_keys())
    }

    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, StoreError> {
        self.export_key_states(keys)
    }

    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), StoreError> {
        self.import_key_states(states)
    }
}

#[cfg(test)]
mod tests {
    use apcache_core::Rng;
    use apcache_push::{FallbackWidth, LeaseConfig};
    use apcache_shard::{ShardBackend, ShardRouter, ShardedStore, ShardedStoreBuilder};
    use apcache_store::{InitialWidth, StoreBuilder, StoreError};

    use crate::{Constraint, PushFilter, Runtime, RuntimeHandle};

    fn runtime_of(n_keys: u64) -> Runtime<u64> {
        let mut b = ShardedStoreBuilder::new()
            .shards(2)
            .rng(Rng::seed_from_u64(7))
            .initial_width(InitialWidth::Fixed(10.0));
        for k in 0..n_keys {
            b = b.source(k, 100.0 * k as f64);
        }
        Runtime::launch(b.build().unwrap()).unwrap()
    }

    #[test]
    fn runtime_handle_serves_verbs_as_a_backend() {
        let runtime = runtime_of(8);
        let mut backend: RuntimeHandle<u64> = runtime.handle();
        assert!(ShardBackend::contains_key(&mut backend, &3).unwrap());
        assert_eq!(ShardBackend::key_list(&mut backend).unwrap(), (0..8).collect::<Vec<_>>());
        let w = ShardBackend::write(&mut backend, &3, 600.0, 1_000).unwrap();
        assert!(w.escaped());
        let r = ShardBackend::read(&mut backend, &3, Constraint::Absolute(5.0), 1_000).unwrap();
        assert!(r.answer.contains(600.0));
        assert!(ShardBackend::insert(&mut backend, 99, 1.0, None, 0).is_err());
        let m = ShardBackend::metrics_snapshot(&mut backend).unwrap();
        assert_eq!(m.totals().writes, 1);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn rejected_export_leaves_directory_store_lease_and_watch_intact() {
        let runtime = runtime_of(4);
        let h = runtime.handle();
        h.subscribe(&1, PushFilter::Always, 0).unwrap();
        h.lease(&1, LeaseConfig { ttl_ms: 60_000, fallback: FallbackWidth::Fixed(40.0) }, 0)
            .unwrap();
        let before = h.read(&1, Constraint::Absolute(1e9), 0).unwrap().answer;

        // A key named twice, alone or among keys of other shards.
        for keys in [&[1u64, 1][..], &[0, 1, 2, 1]] {
            let err = h.export_key_states(keys).unwrap_err();
            assert!(matches!(err, StoreError::DuplicateKey), "{keys:?}: {err}");
        }
        assert!(matches!(h.export_key_states(&[1, 99]), Err(StoreError::UnknownKey)));

        // Directory and store still agree: every key listed and readable,
        // key 1 at the interval it had; lease and subscription still live.
        assert_eq!(h.sorted_keys(), vec![0, 1, 2, 3]);
        for k in 0..4u64 {
            assert!(h.read(&k, Constraint::Absolute(1e9), 0).is_ok(), "key {k}");
        }
        assert_eq!(h.read(&1, Constraint::Absolute(1e9), 0).unwrap().answer, before);
        let push = h.push_stats().unwrap();
        assert_eq!((push.subscribers, push.watched_keys, push.leases), (1, 1, 1));
        assert!(h.poll().is_none(), "a rejected export must not end the subscription");
        runtime.shutdown().unwrap();
    }

    #[test]
    fn outer_ring_migrates_keys_between_runtime_and_local_store() {
        // A 1-shard outer ring backed by a live runtime grows a second,
        // plain in-process shard: resident keys migrate OUT of the
        // runtime (its directory shrinks, inner subscriptions on moved
        // keys end visibly) into the local store with protocol state
        // intact — the heterogeneous ring the backend trait exists for.
        let runtime = runtime_of(16);
        let h = runtime.handle();
        let probe = h.clone(); // inner-view observer, outlives the boxed handle
        let queue = h.completions().clone(); // shares h's queue (sub lives there)
        let (sub, snapshot) = h.subscribe(&4, PushFilter::Always, 0).unwrap();
        assert!(snapshot.contains(400.0));
        let router = ShardRouter::new(1, 64).unwrap();
        let mut outer: ShardedStore<u64, Box<dyn ShardBackend<u64> + Send>> =
            ShardedStore::from_routed_parts(
                router,
                vec![(0, Box::new(h) as Box<dyn ShardBackend<u64> + Send>)],
            )
            .unwrap();
        let local = StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0)).build().unwrap();
        let new_id =
            outer.add_shard_backend(Box::new(local) as Box<dyn ShardBackend<u64> + Send>).unwrap();
        // Some keys moved out of the runtime; its inner directory shrank.
        let moved: Vec<u64> = (0..16u64).filter(|k| outer.router().route(k) == new_id).collect();
        assert!(!moved.is_empty(), "growth must remap some keys out of the runtime");
        assert_eq!(probe.len(), 16 - moved.len());
        // Every key — migrated or resident — still answers through the
        // outer ring with its seeded value and width.
        for k in 0..16u64 {
            let r = outer.read(&k, Constraint::Absolute(1e9), 1_000).unwrap();
            assert!(r.answer.contains(100.0 * k as f64), "key {k}");
            assert!((r.answer.width() - 10.0).abs() < 1e-12, "key {k}");
        }
        // The watched key's fate is visible either way: if it migrated
        // out of the runtime its subscription ended (never silently
        // stale); if it stayed, the stream is still live and quiet.
        if moved.contains(&4) {
            match queue.wait_ticket(sub).unwrap() {
                crate::Outcome::SubscriptionEnded => {}
                other => panic!("unexpected {other:?}"),
            }
        } else {
            assert_eq!(queue.ready_len(), 0);
        }
    }
}
