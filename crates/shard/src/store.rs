//! The sharded serving façade: N shard backends behind one ring.

use std::hash::Hash;
use std::marker::PhantomData;

use apcache_core::cost::CostModel;
use apcache_core::{Interval, Rng, TimeMs};
use apcache_queries::AggregateKind;
use apcache_store::{
    AggregateOutcome, Constraint, InitialWidth, KeyCodec, KeyState, PolicySpec, PrecisionStore,
    ReadResult, SpoolConfig, StoreBuilder, StoreError, StoreMetrics, WriteOutcome,
};

use crate::backend::ShardBackend;
use crate::manifest;
use crate::plan::{empty_aggregate, evaluate_constraint};
use crate::router::ShardRouter;

/// Builder for [`ShardedStore`]: the same protocol knobs as
/// [`StoreBuilder`], plus the deployment shape (shard count, virtual
/// nodes per shard) and a master seed that derives one independent RNG
/// stream per shard.
///
/// ```
/// use apcache_shard::{Constraint, ShardedStoreBuilder};
///
/// let mut store = ShardedStoreBuilder::new()
///     .shards(4)
///     .source("alpha", 10.0)
///     .source("beta", 20.0)
///     .build()
///     .unwrap();
/// assert!(store.read(&"beta", Constraint::Absolute(10.0), 0).unwrap().answer.contains(20.0));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedStoreBuilder<K> {
    proto: StoreBuilder<K>,
    shards: usize,
    vnodes: usize,
    rng: Rng,
    sources: Vec<(K, f64, Option<PolicySpec>)>,
    spool: Option<FleetSpool<K>>,
}

/// A pending fleet-wide spool: the root directory plus the attach hook
/// captured while the `K: KeyCodec` bound was in scope (the same fn-
/// pointer erasure trick [`StoreBuilder`] itself uses), so the rest of
/// the builder needs no spool bounds.
#[derive(Debug, Clone)]
struct FleetSpool<K> {
    dir: String,
    cfg: SpoolConfig,
    attach: fn(StoreBuilder<K>, String, SpoolConfig) -> StoreBuilder<K>,
}

impl<K> Default for ShardedStoreBuilder<K> {
    fn default() -> Self {
        ShardedStoreBuilder {
            proto: StoreBuilder::default(),
            shards: 1,
            vnodes: DEFAULT_VNODES,
            rng: Rng::seed_from_u64(0),
            sources: Vec::new(),
            spool: None,
        }
    }
}

/// Default virtual nodes per shard: enough to keep partitions within a
/// few tens of percent of fair share for typical fleet sizes.
pub const DEFAULT_VNODES: usize = 64;

impl<K: Hash + Ord + Clone> ShardedStoreBuilder<K> {
    /// Start from the paper's recommended tuning on a single shard.
    pub fn new() -> Self {
        ShardedStoreBuilder::default()
    }

    /// Number of shards (≥ 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Virtual nodes per shard on the routing ring (≥ 1).
    pub fn vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Refresh cost model (determines the cost factor θ) for every shard.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.proto = self.proto.cost(cost);
        self
    }

    /// Adaptivity parameter α for every shard.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.proto = self.proto.alpha(alpha);
        self
    }

    /// Snapping thresholds γ0 / γ1 for every shard.
    pub fn thresholds(mut self, gamma0: f64, gamma1: f64) -> Self {
        self.proto = self.proto.thresholds(gamma0, gamma1);
        self
    }

    /// Cache capacity κ **per shard** (widest-first eviction); unbounded
    /// by default. A fleet of `n` shards caches up to `n·κ` keys total.
    pub fn capacity_per_shard(mut self, capacity: usize) -> Self {
        self.proto = self.proto.capacity(capacity);
        self
    }

    /// Rule for choosing starting interval widths.
    pub fn initial_width(mut self, rule: InitialWidth) -> Self {
        self.proto = self.proto.initial_width(rule);
        self
    }

    /// Policy used for keys without a per-key override.
    pub fn default_policy(mut self, spec: PolicySpec) -> Self {
        self.proto = self.proto.default_policy(spec);
        self
    }

    /// Master random stream; each shard gets an independent fork, so a
    /// shard's behavior never depends on how many siblings it has.
    pub fn rng(mut self, rng: Rng) -> Self {
        self.rng = rng;
        self
    }

    /// Give every shard a durable write-ahead spool under `dir`: shard
    /// `i` logs to `dir/shard-<ring id>/`, and `dir/fleet.manifest`
    /// records the ring shape so [`ShardedStore::recover`] can rebuild
    /// the identical fleet after a crash or restart. The key bound is the
    /// one the wire layer asks for too: one `KeyCodec` impl serves both.
    pub fn with_spool(self, dir: impl Into<String>) -> Self
    where
        K: KeyCodec,
    {
        self.with_spool_config(dir, SpoolConfig::default())
    }

    /// [`with_spool`](ShardedStoreBuilder::with_spool) with explicit
    /// segment-size and fsync tuning applied to every shard's spool.
    pub fn with_spool_config(mut self, dir: impl Into<String>, cfg: SpoolConfig) -> Self
    where
        K: KeyCodec,
    {
        self.spool = Some(FleetSpool {
            dir: dir.into(),
            cfg,
            attach: |b, dir, cfg| b.with_spool_config(dir, cfg),
        });
        self
    }

    /// Register a source with the default policy (routed at build time).
    pub fn source(mut self, key: K, initial_value: f64) -> Self {
        self.sources.push((key, initial_value, None));
        self
    }

    /// Register a source with a per-key policy override.
    pub fn source_with_policy(mut self, key: K, initial_value: f64, spec: PolicySpec) -> Self {
        self.sources.push((key, initial_value, Some(spec)));
        self
    }

    /// Assemble the fleet: build the ring, route every registered source
    /// to its owning shard, and construct the per-shard stores.
    pub fn build(mut self) -> Result<ShardedStore<K>, StoreError> {
        let router = ShardRouter::new(self.shards, self.vnodes)?;
        // Duplicate registrations route to the same shard, so the per-shard
        // builder's own DuplicateKey check covers the whole fleet.
        let mut builders: Vec<StoreBuilder<K>> =
            (0..self.shards).map(|_| self.proto.clone().rng(self.rng.fork())).collect();
        for (key, value, spec) in self.sources {
            let shard = router.route(&key) as usize;
            // Take/put-back instead of clone: the builder accumulates its
            // routed sources, so cloning here would be quadratic in fleet
            // size.
            let b = std::mem::take(&mut builders[shard]);
            builders[shard] = match spec {
                Some(spec) => b.source_with_policy(key, value, spec),
                None => b.source(key, value),
            };
        }
        if let Some(plan) = &self.spool {
            manifest::write_manifest(&plan.dir, self.vnodes, router.shard_ids())?;
            for (slot, b) in builders.iter_mut().enumerate() {
                let id = router.shard_ids()[slot];
                let taken = std::mem::take(b);
                *b = (plan.attach)(taken, manifest::shard_dir(&plan.dir, id), plan.cfg);
            }
        }
        let shards =
            builders.into_iter().map(StoreBuilder::build).collect::<Result<Vec<_>, _>>()?;
        let ids = router.shard_ids().to_vec();
        Ok(ShardedStore { router, ids, shards, _key: PhantomData })
    }
}

/// A deployment-wide view of serving metrics: one [`StoreMetrics`] per
/// shard (borrowed from the live stores) plus their merged rollup
/// (materialized at construction).
#[derive(Debug, Clone)]
pub struct ShardedMetrics<'a, K> {
    per_shard: Vec<&'a StoreMetrics<K>>,
    merged: StoreMetrics<K>,
}

impl<'a, K: Ord + Clone> ShardedMetrics<'a, K> {
    /// The merged rollup: every counter summed across shards.
    pub fn merged(&self) -> &StoreMetrics<K> {
        &self.merged
    }

    /// Per-shard metrics, indexed by shard id.
    pub fn per_shard(&self) -> &[&'a StoreMetrics<K>] {
        &self.per_shard
    }

    /// Metrics of one shard.
    pub fn shard(&self, shard: usize) -> Option<&'a StoreMetrics<K>> {
        self.per_shard.get(shard).copied()
    }
}

/// A shard-oblivious façade over `N` [`PrecisionStore`]s: the same four
/// verbs — [`read`](ShardedStore::read), [`write`](ShardedStore::write),
/// [`aggregate`](ShardedStore::aggregate),
/// [`metrics`](ShardedStore::metrics) — with keys partitioned across the
/// shards by a consistent-hash ring.
///
/// Point reads and writes route to the owning shard and behave exactly as
/// on a single store (per-key protocol state is shard-local). Aggregates
/// fan out to the shards owning keys of the requested set and merge the
/// bounded partial answers with interval arithmetic:
///
/// * **SUM** — the precision budget δ is split across shards in
///   proportion to their key count, and the partial sums add:
///   `width(Σ) = Σ width_s ≤ Σ δ·n_s/n = δ`.
/// * **AVG** — evaluated as a SUM with budget `δ·n`, scaled by `1/n`.
/// * **MAX / MIN** — every shard receives the full budget δ; the merged
///   extremum `[max L_s, max H_s]` is at most as wide as the partial
///   answer of the shard holding the winner, so the bound composes.
/// * **Exact / Relative** — exact fans out exactly; a relative constraint
///   runs a bounded refinement (probe → per-shard local certificates →
///   derived absolute budget, see
///   [`aggregate_relative`](ShardedStore::aggregate)) that fetches only
///   as much as the certificate needs, degenerating to exactness only
///   when the aggregate genuinely hugs zero — the classical relative-
///   bound degeneracy the single store shares.
///
/// When every requested key lives on one shard the query is delegated
/// with the original constraint unchanged, so single-shard deployments
/// (and colliding key sets) behave bit-for-bit like an unsharded store.
///
/// The backend type `B` is pluggable (see [`ShardBackend`]): the default
/// is an in-process [`PrecisionStore`] per shard, but any mix of local
/// stores, runtime handles, and remote clients can sit behind one ring —
/// and [`add_shard_backend`](ShardedStore::add_shard_backend) /
/// [`remove_shard`](ShardedStore::remove_shard) reshard elastically,
/// migrating resident keys (values, adaptive widths, counters) to their
/// new owners instead of stranding them.
#[derive(Debug)]
pub struct ShardedStore<K, B = PrecisionStore<K>> {
    router: ShardRouter,
    /// `ids[slot]` is the ring id of `shards[slot]`. Dense (`0..n`) when
    /// built by [`ShardedStoreBuilder`]; arbitrary after elastic
    /// add/remove, since the ring never recycles ids.
    ids: Vec<u32>,
    pub(crate) shards: Vec<B>,
    _key: PhantomData<fn() -> K>,
}

impl<K: Hash + Ord + Clone, B: ShardBackend<K>> ShardedStore<K, B> {
    /// The ring id that owns `key` (as `usize` for convenience; equal to
    /// the shard's slot index on builder-dense fleets).
    pub fn shard_of(&self, key: &K) -> usize {
        self.router.route(key) as usize
    }

    /// The slot index of ring id `id`.
    fn slot_of_id(&self, id: u32) -> usize {
        self.ids.iter().position(|&x| x == id).expect("routed id is on the ring")
    }

    /// The slot index of the backend owning `key`.
    pub(crate) fn slot_of(&self, key: &K) -> usize {
        self.slot_of_id(self.router.route(key))
    }

    /// Read `key` to the given precision on its owning shard.
    pub fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, StoreError> {
        let slot = self.slot_of(key);
        self.shards[slot].read(key, constraint, now)
    }

    /// Push a new exact value for `key` to its owning shard.
    pub fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, StoreError> {
        let slot = self.slot_of(key);
        self.shards[slot].write(key, value, now)
    }

    /// Apply a batch of writes with one routing pass: items are grouped by
    /// owning shard (slice order preserved within each shard) and handed
    /// to the shards as per-shard batches.
    ///
    /// Per-key protocol state is shard-local and a shard sees its items in
    /// slice order, so the outcome is identical to routing each write
    /// individually. The whole batch is validated up front (unknown keys,
    /// non-finite values), so a failed batch applies no write on any
    /// shard; the returned outcome sums the per-write refresh counts.
    pub fn write_batch(
        &mut self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<WriteOutcome, StoreError> {
        let mut per_slot: Vec<Vec<(K, f64)>> = vec![Vec::new(); self.shards.len()];
        for (key, value) in items {
            if !value.is_finite() {
                return Err(apcache_core::error::ProtocolError::NonFiniteValue(*value).into());
            }
            let slot = self.slot_of(key);
            if !self.shards[slot].contains_key(key)? {
                return Err(StoreError::UnknownKey);
            }
            per_slot[slot].push((key.clone(), *value));
        }
        let mut refreshes = 0;
        for (slot, batch) in per_slot.into_iter().enumerate() {
            if !batch.is_empty() {
                refreshes += self.shards[slot].write_batch(&batch, now)?.refreshes;
            }
        }
        Ok(WriteOutcome { refreshes })
    }

    /// Register a new source after construction, with the default policy.
    pub fn insert(&mut self, key: K, value: f64, now: TimeMs) -> Result<(), StoreError> {
        let slot = self.slot_of(&key);
        self.shards[slot].insert(key, value, None, now)
    }

    /// Register a new source after construction, with a per-key policy.
    pub fn insert_with_policy(
        &mut self,
        key: K,
        value: f64,
        spec: PolicySpec,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        let slot = self.slot_of(&key);
        self.shards[slot].insert(key, value, Some(spec), now)
    }

    /// Partition `keys` by owning slot, preserving the order within each
    /// shard. Errors if any key is unknown — checked up front so a failed
    /// aggregate never charges any shard.
    fn partition(&mut self, keys: &[K]) -> Result<Vec<(usize, Vec<K>)>, StoreError> {
        let mut per_slot: Vec<Vec<K>> = vec![Vec::new(); self.shards.len()];
        for key in keys {
            let slot = self.slot_of(key);
            if !self.shards[slot].contains_key(key)? {
                return Err(StoreError::UnknownKey);
            }
            per_slot[slot].push(key.clone());
        }
        Ok(per_slot.into_iter().enumerate().filter(|(_, keys)| !keys.is_empty()).collect())
    }

    /// Fan an aggregate out with a per-shard constraint chosen by `split`
    /// (the [`plan::FanOut`](crate::plan::FanOut) primitive, evaluated by
    /// direct calls shard after shard).
    fn fan_out(
        &mut self,
        kind: AggregateKind,
        parts: &[(usize, Vec<K>)],
        split: &dyn Fn(usize) -> Constraint,
        now: TimeMs,
    ) -> Result<(Vec<Interval>, Vec<K>), StoreError> {
        let mut partials = Vec::with_capacity(parts.len());
        let mut refreshed = Vec::new();
        for (shard, keys) in parts {
            let out = self.shards[*shard].aggregate(kind, keys, split(keys.len()), now)?;
            partials.push(out.answer);
            refreshed.extend(out.refreshed);
        }
        Ok((partials, refreshed))
    }

    /// Bounded aggregate over `keys`, fanned out to the owning shards and
    /// merged with interval arithmetic (see the type-level docs for the
    /// per-kind composition rules). The constraint dispatch — including
    /// the Relative probe → local-certificates → budget refinement — is
    /// [`plan::evaluate_constraint`](crate::plan::evaluate_constraint),
    /// shared with the actor runtime so the two façades cannot drift.
    pub fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, StoreError> {
        constraint.validate()?;
        if keys.is_empty() {
            return empty_aggregate(kind);
        }
        let parts = self.partition(keys)?;
        // All keys on one shard: delegate untouched, matching an unsharded
        // store exactly (this also covers single-shard deployments).
        if let [(shard, shard_keys)] = parts.as_slice() {
            return self.shards[*shard].aggregate(kind, shard_keys, constraint, now);
        }
        evaluate_constraint(kind, constraint, keys.len(), &mut |local_kind, split| {
            self.fan_out(local_kind, &parts, split, now)
        })
    }

    /// Deployment-wide metrics rollup, assembled by snapshotting every
    /// backend (a remote backend performs one METRICS round trip each).
    /// Local-only fleets can use the borrow-based
    /// [`metrics`](ShardedStore::metrics) instead.
    pub fn metrics_snapshot(&mut self) -> Result<StoreMetrics<K>, StoreError> {
        let mut merged = StoreMetrics::new();
        for shard in &mut self.shards {
            merged.merge(&shard.metrics_snapshot()?);
        }
        Ok(merged)
    }

    /// The routing ring.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The ring ids of the fleet, in slot order.
    pub fn shard_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Assemble a fleet from a ring and one backend per ring id. The
    /// supplied ids must match the ring's member set exactly (any order,
    /// no duplicates) — this is the entry point for mixed deployments
    /// (local stores, runtime handles, remote clients behind one ring).
    pub fn from_routed_parts(
        router: ShardRouter,
        parts: Vec<(u32, B)>,
    ) -> Result<Self, StoreError> {
        let mut ring: Vec<u32> = router.shard_ids().to_vec();
        let mut supplied: Vec<u32> = parts.iter().map(|(id, _)| *id).collect();
        ring.sort_unstable();
        supplied.sort_unstable();
        let unique = supplied.windows(2).all(|w| w[0] != w[1]);
        if ring != supplied || !unique {
            return Err(StoreError::Config(format!(
                "ring addresses shards {:?} but backends were supplied for {:?}",
                router.shard_ids(),
                parts.iter().map(|(id, _)| *id).collect::<Vec<_>>()
            )));
        }
        let (ids, shards) = parts.into_iter().unzip();
        Ok(ShardedStore { router, ids, shards, _key: PhantomData })
    }

    /// Decompose the fleet into its ring and `(ring id, backend)` pairs,
    /// inverse of [`from_routed_parts`](ShardedStore::from_routed_parts).
    pub fn into_routed_parts(self) -> (ShardRouter, Vec<(u32, B)>) {
        (self.router, self.ids.into_iter().zip(self.shards).collect())
    }

    /// Grow the fleet by one shard, **migrating** every key the ring
    /// reassigns to it — values, adaptive widths, vote histories, cached
    /// intervals, and per-key metrics all move, so a remapped key resumes
    /// the paper's protocol on the new shard exactly where it left off
    /// (instead of reading as cold, the pre-migration bug this fixes).
    ///
    /// Returns the new shard's ring id. On a failed export/import the
    /// ring is rolled back and the fleet is unchanged (keys already moved
    /// into `backend` are lost with it, but no resident key is ever
    /// half-moved: exports are atomic per shard).
    pub fn add_shard_backend(&mut self, mut backend: B) -> Result<u32, StoreError> {
        let new_id = self.router.add_shard();
        for slot in 0..self.shards.len() {
            let keys = match self.shards[slot].key_list() {
                Ok(keys) => keys,
                Err(e) => {
                    self.router.remove_shard(new_id).expect("fresh id is on the ring");
                    return Err(e);
                }
            };
            let moving: Vec<K> =
                keys.into_iter().filter(|k| self.router.route(k) == new_id).collect();
            if moving.is_empty() {
                continue;
            }
            let moved = self.shards[slot]
                .export_keys(&moving)
                .and_then(|states| backend.import_keys(states));
            if let Err(e) = moved {
                self.router.remove_shard(new_id).expect("fresh id is on the ring");
                return Err(e);
            }
        }
        self.ids.push(new_id);
        self.shards.push(backend);
        Ok(new_id)
    }

    /// Shrink the fleet by retiring the shard with ring id `id`, first
    /// migrating every resident key (with full protocol state) to its new
    /// owner under the post-removal ring. Returns the drained backend.
    /// Errors if `id` is unknown or the last shard.
    pub fn remove_shard(&mut self, id: u32) -> Result<B, StoreError> {
        let slot = self
            .ids
            .iter()
            .position(|&x| x == id)
            .ok_or_else(|| StoreError::Config(format!("shard {id} is not on the ring")))?;
        self.router.remove_shard(id)?;
        let drained = (|| {
            let keys = self.shards[slot].key_list()?;
            let states = self.shards[slot].export_keys(&keys)?;
            // Group by new owner so each target gets one import batch.
            let mut per_owner: Vec<(u32, Vec<KeyState<K>>)> = Vec::new();
            for state in states {
                let owner = self.router.route(&state.key);
                match per_owner.iter_mut().find(|(o, _)| *o == owner) {
                    Some((_, batch)) => batch.push(state),
                    None => per_owner.push((owner, vec![state])),
                }
            }
            for (owner, batch) in per_owner {
                let target = self.slot_of_id(owner);
                self.shards[target].import_keys(batch)?;
            }
            Ok(())
        })();
        match drained {
            Ok(()) => {
                self.ids.remove(slot);
                Ok(self.shards.remove(slot))
            }
            Err(e) => Err(e),
        }
    }
}

impl<K: Hash + Ord + Clone> ShardedStore<K, PrecisionStore<K>> {
    /// Entry point: a builder with the paper's recommended tuning.
    pub fn builder() -> ShardedStoreBuilder<K> {
        ShardedStoreBuilder::new()
    }

    /// Deployment metrics: per-shard [`StoreMetrics`] (borrowed, free) and
    /// their merged rollup (built here — O(keys touched), so monitoring
    /// loops that only need one shard should use
    /// [`ShardedMetrics::shard`] rather than re-merging per scrape).
    pub fn metrics(&self) -> ShardedMetrics<'_, K> {
        let per_shard: Vec<&StoreMetrics<K>> = self.shards.iter().map(|s| s.metrics()).collect();
        let mut merged = StoreMetrics::new();
        for m in &per_shard {
            merged.merge(m);
        }
        ShardedMetrics { per_shard, merged }
    }

    /// The refresh cost model the shards charge against.
    pub fn cost_model(&self) -> &CostModel {
        self.shards[0].cost_model()
    }

    /// Decompose the façade into its routing ring and shard stores — the
    /// entry point for deployments that give each shard its own executor
    /// (the actor runtime moves every store onto its own thread and keeps
    /// the ring on the routing side).
    pub fn into_parts(self) -> (ShardRouter, Vec<PrecisionStore<K>>) {
        (self.router, self.shards)
    }

    /// Reassemble a façade from parts produced by
    /// [`into_parts`](ShardedStore::into_parts). The ring must address
    /// exactly `shards.len()` shards (ids `0..n`, as built by
    /// [`ShardedStoreBuilder`]) or routing would index out of bounds. For
    /// sparse rings (after elastic add/remove) use
    /// [`from_routed_parts`](ShardedStore::from_routed_parts).
    pub fn from_parts(
        router: ShardRouter,
        shards: Vec<PrecisionStore<K>>,
    ) -> Result<Self, StoreError> {
        let dense = router.shard_ids().iter().enumerate().all(|(i, &id)| id as usize == i);
        if router.len() != shards.len() || !dense {
            return Err(StoreError::Config(format!(
                "ring addresses shards {:?} but {} store(s) were supplied",
                router.shard_ids(),
                shards.len()
            )));
        }
        let ids = router.shard_ids().to_vec();
        Ok(ShardedStore { router, ids, shards, _key: PhantomData })
    }

    /// Direct (read-only) access to one shard by slot index, e.g. for
    /// tests and inspection tooling.
    pub fn shard(&self, shard: usize) -> Option<&PrecisionStore<K>> {
        self.shards.get(shard)
    }

    /// Snapshot every shard's full state into its spool and compact the
    /// logs (see [`PrecisionStore::checkpoint`]). Shards without a spool
    /// are no-ops, so this is safe to call on any fleet.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        for shard in &mut self.shards {
            shard.checkpoint()?;
        }
        Ok(())
    }

    /// Total number of registered sources across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(PrecisionStore::len).sum()
    }

    /// Whether no shard has any source.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(PrecisionStore::is_empty)
    }

    /// Whether `key` has a registered source (on its owning shard).
    pub fn contains_key(&self, key: &K) -> bool {
        self.shards[self.slot_of(key)].contains_key(key)
    }

    /// Iterate over every registered key, shard by shard (registration
    /// order within each shard).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.shards.iter().flat_map(|s| s.keys())
    }

    /// Total number of keys resident across the shard caches.
    pub fn cached_len(&self) -> usize {
        self.shards.iter().map(PrecisionStore::cached_len).sum()
    }

    /// The interval the owning shard's cache currently holds for `key`.
    pub fn cached_interval(&self, key: &K, now: TimeMs) -> Option<Interval> {
        self.shards[self.slot_of(key)].cached_interval(key, now)
    }

    /// The policy's internal width for `key` on its owning shard.
    pub fn internal_width(&self, key: &K) -> Option<f64> {
        self.shards[self.slot_of(key)].internal_width(key)
    }

    /// The source-side exact value for `key` on its owning shard.
    pub fn value(&self, key: &K) -> Option<f64> {
        self.shards[self.slot_of(key)].value(key)
    }
}

impl<K: KeyCodec + Hash + Ord + Clone> ShardedStore<K, PrecisionStore<K>> {
    /// Rebuild a fleet from the spool directory a previous process left
    /// behind (written by
    /// [`with_spool`](ShardedStoreBuilder::with_spool)): read the fleet
    /// manifest, rebuild the identical consistent-hash ring, and recover
    /// each shard's store from `dir/shard-<id>/`. Every shard resumes
    /// with its converged widths and keeps logging to the same spool.
    pub fn recover(dir: &str) -> Result<Self, StoreError> {
        Self::recover_with_config(dir, SpoolConfig::default())
    }

    /// [`recover`](ShardedStore::recover) with explicit spool tuning.
    pub fn recover_with_config(dir: &str, cfg: SpoolConfig) -> Result<Self, StoreError> {
        let (vnodes, ids) = manifest::read_manifest(dir)?;
        let router = ShardRouter::with_shards(&ids, vnodes)?;
        let parts = ids
            .iter()
            .map(|&id| {
                PrecisionStore::recover_with_config(&manifest::shard_dir(dir, id), cfg)
                    .map(|store| (id, store))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_routed_parts(router, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcache_queries::{satisfies_relative, QueryError};

    fn fleet(shards: usize, n_keys: u64) -> ShardedStore<u64> {
        let mut b = ShardedStoreBuilder::new()
            .shards(shards)
            .vnodes(32)
            .initial_width(InitialWidth::Fixed(10.0));
        for k in 0..n_keys {
            b = b.source(k, 100.0 * k as f64);
        }
        b.build().unwrap()
    }

    #[test]
    fn keys_spread_across_shards() {
        let s = fleet(4, 64);
        assert_eq!(s.len(), 64);
        assert_eq!(s.shard_count(), 4);
        let occupied = (0..4).filter(|&i| !s.shard(i).unwrap().is_empty()).count();
        assert!(occupied >= 2, "64 keys landed on {occupied} shard(s)");
        // Every key is findable and routed consistently.
        for k in 0..64u64 {
            assert!(s.contains_key(&k));
            assert!(s.shard(s.shard_of(&k)).unwrap().contains_key(&k));
        }
        assert_eq!(s.keys().count(), 64);
    }

    #[test]
    fn reads_and_writes_route_to_owning_shard() {
        let mut s = fleet(4, 8);
        let shard = s.shard_of(&3);
        let r = s.read(&3, Constraint::Absolute(10.0), 0).unwrap();
        assert!(!r.refreshed);
        assert!(r.answer.contains(300.0));
        s.write(&3, 600.0, 1_000).unwrap(); // escapes [295, 305]
        let m = s.metrics();
        assert_eq!(m.shard(shard).unwrap().totals().reads, 1);
        assert_eq!(m.shard(shard).unwrap().vr_count(), 1);
        assert_eq!(m.merged().totals().reads, 1);
        assert_eq!(m.merged().vr_count(), 1);
        // Untouched shards report nothing.
        let touched: u64 = m.per_shard().iter().map(|sm| sm.totals().reads).sum();
        assert_eq!(touched, 1);
    }

    #[test]
    fn sum_aggregate_meets_budget_across_shards() {
        let mut s = fleet(4, 16);
        let keys: Vec<u64> = (0..16).collect();
        let truth: f64 = (0..16).map(|k| 100.0 * k as f64).sum();
        for delta in [1_000.0, 40.0, 8.0, 0.0] {
            let out =
                s.aggregate(AggregateKind::Sum, &keys, Constraint::Absolute(delta), 0).unwrap();
            assert!(out.answer.width() <= delta + 1e-9, "delta={delta}");
            assert!(out.answer.contains(truth), "delta={delta}");
        }
    }

    #[test]
    fn extrema_and_avg_compose_across_shards() {
        let mut s = fleet(4, 12);
        let keys: Vec<u64> = (0..12).collect();
        let out = s.aggregate(AggregateKind::Max, &keys, Constraint::Absolute(5.0), 0).unwrap();
        assert!(out.answer.width() <= 5.0 + 1e-9);
        assert!(out.answer.contains(1_100.0));
        let out = s.aggregate(AggregateKind::Min, &keys, Constraint::Absolute(5.0), 0).unwrap();
        assert!(out.answer.contains(0.0));
        let avg_truth = (0..12).map(|k| 100.0 * k as f64).sum::<f64>() / 12.0;
        let out = s.aggregate(AggregateKind::Avg, &keys, Constraint::Absolute(2.0), 0).unwrap();
        assert!(out.answer.width() <= 2.0 + 1e-9);
        assert!(out.answer.contains(avg_truth));
        let out = s.aggregate(AggregateKind::Avg, &keys, Constraint::Exact, 0).unwrap();
        assert!(out.answer.width() <= 1e-9);
        assert!(out.answer.contains(avg_truth));
    }

    #[test]
    fn relative_aggregate_probes_then_escalates() {
        let mut s = fleet(4, 8);
        let keys: Vec<u64> = (0..8).collect();
        let truth: f64 = (0..8).map(|k| 100.0 * k as f64).sum();
        // Loose ρ: the cached bounds certify it, nothing is fetched.
        let out = s.aggregate(AggregateKind::Sum, &keys, Constraint::Relative(0.5), 0).unwrap();
        assert!(out.refreshed.is_empty());
        assert!(out.answer.contains(truth));
        assert_eq!(s.metrics().merged().qr_count(), 0);
        // Tight ρ: escalation fetches and returns a certified answer.
        let out = s.aggregate(AggregateKind::Sum, &keys, Constraint::Relative(0.001), 0).unwrap();
        assert!(!out.refreshed.is_empty());
        assert!(satisfies_relative(&out.answer, 0.001));
        assert!(out.answer.contains(truth));
    }

    #[test]
    fn relative_aggregate_with_wild_bounds_avoids_full_exact_fanout() {
        // Sources far from zero, but one key straddles zero and drags the
        // probe's magnitude to 0. The refinement must resolve the wild
        // items via per-shard local plans instead of fetching all keys.
        let mut b =
            ShardedStoreBuilder::new().shards(4).vnodes(32).initial_width(InitialWidth::Fixed(4.0));
        for k in 0..32u64 {
            b = b.source(k, 1_000.0 + k as f64);
        }
        // Key 99's interval [−2, 2] straddles zero.
        b = b.source(99, 0.0);
        let mut s = b.build().unwrap();
        let keys: Vec<u64> = (0..32).chain([99]).collect();
        let truth: f64 = (0..32).map(|k| 1_000.0 + k as f64).sum();
        let out = s.aggregate(AggregateKind::Sum, &keys, Constraint::Relative(0.01), 0).unwrap();
        assert!(satisfies_relative(&out.answer, 0.01));
        assert!(out.answer.contains(truth));
        // The certificate needs only a fraction of the keys, not all 33:
        // the local round resolves the straddling item, the budget round
        // narrows the rest only as far as ρ demands.
        assert!(
            out.refreshed.len() < keys.len(),
            "fetched {} of {} keys — degenerated to a full exact fan-out",
            out.refreshed.len(),
            keys.len()
        );
    }

    #[test]
    fn empty_aggregates_mirror_single_store() {
        let mut s = fleet(2, 4);
        let none: &[u64] = &[];
        let out = s.aggregate(AggregateKind::Sum, none, Constraint::Absolute(1.0), 0).unwrap();
        assert_eq!((out.answer.lo(), out.answer.hi()), (0.0, 0.0));
        assert!(out.refreshed.is_empty());
        for kind in [AggregateKind::Max, AggregateKind::Min, AggregateKind::Avg] {
            assert!(matches!(
                s.aggregate(kind, none, Constraint::Absolute(1.0), 0),
                Err(StoreError::Query(QueryError::EmptyInput))
            ));
        }
    }

    #[test]
    fn unknown_keys_error_without_charging_any_shard() {
        let mut s = fleet(4, 4);
        assert!(matches!(s.read(&99, Constraint::Exact, 0), Err(StoreError::UnknownKey)));
        assert!(matches!(s.write(&99, 0.0, 0), Err(StoreError::UnknownKey)));
        assert!(matches!(
            s.aggregate(AggregateKind::Sum, &[0, 99], Constraint::Exact, 0),
            Err(StoreError::UnknownKey)
        ));
        assert_eq!(s.metrics().merged().total_cost(), 0.0);
    }

    #[test]
    fn insert_after_build_routes_consistently() {
        let mut s = fleet(4, 0);
        assert!(s.is_empty());
        for k in 0..10u64 {
            s.insert(k, k as f64, 0).unwrap();
        }
        assert!(matches!(s.insert(5, 0.0, 0), Err(StoreError::DuplicateKey)));
        s.insert_with_policy(10, 10.0, PolicySpec::Fixed { width: 2.0 }, 0).unwrap();
        assert_eq!(s.len(), 11);
        let r = s.read(&10, Constraint::Absolute(2.0), 0).unwrap();
        assert!(!r.refreshed);
    }

    #[test]
    fn write_batch_matches_routed_writes() {
        let mut batched = fleet(4, 16);
        let mut routed = fleet(4, 16);
        let updates: Vec<(u64, f64)> = (0..16u64).map(|k| (k, 1_000.0 + k as f64)).collect();
        let out = batched.write_batch(&updates, 1_000).unwrap();
        let mut refreshes = 0;
        for (k, v) in &updates {
            refreshes += routed.write(k, *v, 1_000).unwrap().refreshes;
        }
        assert_eq!(out.refreshes, refreshes);
        for k in 0..16u64 {
            assert_eq!(batched.value(&k), routed.value(&k));
            assert_eq!(batched.internal_width(&k), routed.internal_width(&k));
            assert_eq!(batched.cached_interval(&k, 1_000), routed.cached_interval(&k, 1_000));
        }
        assert_eq!(batched.metrics().merged().totals(), routed.metrics().merged().totals());
    }

    #[test]
    fn write_batch_is_all_or_nothing_across_shards() {
        let mut s = fleet(4, 8);
        assert!(matches!(s.write_batch(&[(0, 1.0), (99, 2.0)], 0), Err(StoreError::UnknownKey)));
        assert!(s.write_batch(&[(0, 1.0), (1, f64::INFINITY)], 0).is_err());
        // No shard applied anything.
        assert_eq!(s.metrics().merged().totals().writes, 0);
        assert_eq!(s.value(&0), Some(0.0));
        assert_eq!(s.write_batch(&[], 0).unwrap().refreshes, 0);
    }

    #[test]
    fn parts_roundtrip_preserves_state() {
        let mut s = fleet(4, 12);
        s.write(&3, 777.0, 0).unwrap();
        let reads = s.metrics().merged().totals().reads;
        let (router, shards) = s.into_parts();
        assert_eq!(shards.len(), 4);
        let s = ShardedStore::from_parts(router, shards).unwrap();
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.value(&3), Some(777.0));
        assert_eq!(s.metrics().merged().totals().reads, reads);
        // Mismatched parts are rejected.
        let (router, mut shards) = s.into_parts();
        shards.pop();
        assert!(matches!(ShardedStore::from_parts(router, shards), Err(StoreError::Config(_))));
    }

    /// One shard with the same tuning as [`fleet`], for use as an elastic
    /// add target.
    fn lone_store() -> PrecisionStore<u64> {
        apcache_store::StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0)).build().unwrap()
    }

    /// Drive identical traffic into a store and return per-key probes.
    fn probe(
        s: &ShardedStore<u64>,
        keys: impl Iterator<Item = u64>,
    ) -> Vec<(Option<f64>, Option<f64>, Option<Interval>)> {
        keys.map(|k| (s.value(&k), s.internal_width(&k), s.cached_interval(&k, 0))).collect()
    }

    #[test]
    fn add_shard_migrates_remapped_keys_with_protocol_state() {
        let mut grown = fleet(2, 48);
        let reference = fleet(2, 48);
        // Converge some adaptive widths away from their initial values
        // before resharding, on both stores identically.
        let mut grown_ref = fleet(2, 48);
        for (s, _) in [(&mut grown, 0), (&mut grown_ref, 1)] {
            for k in 0..48u64 {
                s.write(&k, 100.0 * k as f64 + 500.0, 10).unwrap(); // escape → VR
                s.read(&k, Constraint::Absolute(50.0), 20).unwrap();
            }
        }
        let before = probe(&grown, 0..48);
        assert_eq!(before, probe(&grown_ref, 0..48), "identical traffic, identical state");
        drop(reference);

        let new_id = grown.add_shard_backend(lone_store()).unwrap();
        assert_eq!(grown.shard_count(), 3);
        assert_eq!(grown.shard_ids(), &[0, 1, new_id]);
        // The new shard actually owns keys (48 keys, ~1/3 remap).
        let moved: Vec<u64> = (0..48u64).filter(|k| grown.shard_of(k) == new_id as usize).collect();
        assert!(!moved.is_empty(), "no key remapped to the new shard");
        assert_eq!(grown.len(), 48, "no key lost or duplicated");
        // Every key — moved or not — kept its value, converged width, and
        // cached interval bit-for-bit. This is the stranded-keys bugfix:
        // before migration existed, a remapped key read as cold.
        assert_eq!(probe(&grown, 0..48), before);
        // Per-key metrics moved with the keys.
        let merged = grown.metrics_snapshot().unwrap();
        assert_eq!(merged.totals(), grown_ref.metrics().merged().totals());
        for k in moved {
            assert_eq!(merged.for_key(&k), grown_ref.metrics().merged().for_key(&k), "key {k}");
        }
        // The protocol continues seamlessly: same post-migration traffic
        // gives the same answers as the never-resharded reference.
        for k in 0..48u64 {
            let a = grown.read(&k, Constraint::Absolute(30.0), 30).unwrap();
            let b = grown_ref.read(&k, Constraint::Absolute(30.0), 30).unwrap();
            assert_eq!((a.answer, a.refreshed), (b.answer, b.refreshed), "key {k}");
        }
    }

    #[test]
    fn remove_shard_rehomes_every_resident_key() {
        let mut s = fleet(3, 36);
        for k in 0..36u64 {
            s.write(&k, k as f64 * 7.0 + 1_000.0, 5).unwrap();
        }
        let before = probe(&s, 0..36);
        let drained = s.remove_shard(1).unwrap();
        assert!(drained.is_empty(), "drained shard kept {} key(s)", drained.len());
        assert_eq!(s.shard_count(), 2);
        assert_eq!(s.shard_ids(), &[0, 2]);
        assert_eq!(s.len(), 36);
        assert_eq!(probe(&s, 0..36), before, "state changed during drain");
        // Removing the last shards errors; unknown ids error.
        assert!(matches!(s.remove_shard(7), Err(StoreError::Config(_))));
        s.remove_shard(0).unwrap();
        assert!(matches!(s.remove_shard(2), Err(StoreError::Config(_))), "last shard must stay");
        assert_eq!(s.len(), 36, "all keys on the survivor");
    }

    #[test]
    fn grow_then_shrink_roundtrips_to_reference_behavior() {
        let mut elastic = fleet(2, 24);
        let mut reference = fleet(2, 24);
        for k in 0..24u64 {
            elastic.write(&k, 3.0 * k as f64, 1).unwrap();
            reference.write(&k, 3.0 * k as f64, 1).unwrap();
        }
        let id = elastic.add_shard_backend(lone_store()).unwrap();
        elastic.remove_shard(id).unwrap();
        // Ring membership differs from the original (ids never recycle),
        // but with {0, 1} back in force routing is identical — and so is
        // every key's protocol state.
        assert_eq!(elastic.shard_ids(), &[0, 1]);
        for k in 0..24u64 {
            let a = elastic.read(&k, Constraint::Absolute(4.0), 10).unwrap();
            let b = reference.read(&k, Constraint::Absolute(4.0), 10).unwrap();
            assert_eq!((a.answer, a.refreshed), (b.answer, b.refreshed), "key {k}");
        }
        assert_eq!(elastic.metrics().merged().totals(), reference.metrics().merged().totals());
    }

    #[test]
    fn routed_parts_roundtrip_and_validation() {
        let mut s = fleet(3, 12);
        let id = s.add_shard_backend(lone_store()).unwrap();
        s.remove_shard(0).unwrap();
        let n = s.len();
        let (router, parts) = s.into_routed_parts();
        let ids: Vec<u32> = parts.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2, id]);
        let s = ShardedStore::from_routed_parts(router, parts).unwrap();
        assert_eq!(s.len(), n);
        // Mismatched id sets are rejected.
        let (router, mut parts) = s.into_routed_parts();
        parts[0].0 = 99;
        assert!(matches!(
            ShardedStore::from_routed_parts(router, parts),
            Err(StoreError::Config(_))
        ));
    }

    #[test]
    fn fleet_spool_recovers_routing_and_state_bit_identical() {
        let dir = std::env::temp_dir().join(format!("apcache-fleet-spool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_str().unwrap().to_string();

        let build = |spool: bool| {
            let mut b = ShardedStoreBuilder::new()
                .shards(4)
                .vnodes(32)
                .initial_width(InitialWidth::Fixed(10.0));
            if spool {
                b = b.with_spool(dir.clone());
            }
            for k in 0..24u64 {
                b = b.source(k, 100.0 * k as f64);
            }
            b.build().unwrap()
        };
        let mut reference = build(false);
        let mut subject = build(true);
        for s in [&mut reference, &mut subject] {
            for k in 0..24u64 {
                s.write(&k, 100.0 * k as f64 + 500.0, 10).unwrap(); // escape → VR
                s.read(&k, Constraint::Absolute(50.0), 20).unwrap(); // QR
            }
        }
        // "Kill" the fleet: drop it; only the spooled state survives.
        drop(subject);
        let mut recovered = ShardedStore::<u64>::recover(&dir).unwrap();
        assert_eq!(recovered.shard_count(), 4);
        for k in 0..24u64 {
            assert_eq!(recovered.shard_of(&k), reference.shard_of(&k), "key {k} rerouted");
            assert_eq!(recovered.value(&k), reference.value(&k), "key {k}");
            assert_eq!(recovered.internal_width(&k), reference.internal_width(&k), "key {k}");
            assert_eq!(
                recovered.cached_interval(&k, 20),
                reference.cached_interval(&k, 20),
                "key {k}"
            );
        }
        // The recovered fleet keeps serving — and logging — identically.
        for s in [&mut reference, &mut recovered] {
            for k in 0..24u64 {
                s.write(&k, 40.0 * k as f64, 30).unwrap();
            }
        }
        for k in 0..24u64 {
            let a = recovered.read(&k, Constraint::Absolute(25.0), 40).unwrap();
            let b = reference.read(&k, Constraint::Absolute(25.0), 40).unwrap();
            assert_eq!((a.answer, a.refreshed), (b.answer, b.refreshed), "key {k}");
        }
        // Checkpoint compacts every shard's log; recovery still works.
        recovered.checkpoint().unwrap();
        drop(recovered);
        let again = ShardedStore::<u64>::recover(&dir).unwrap();
        for k in 0..24u64 {
            assert_eq!(again.internal_width(&k), reference.internal_width(&k), "key {k}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_sources_rejected_at_build() {
        let err =
            ShardedStoreBuilder::new().shards(4).source("dup", 1.0).source("dup", 2.0).build();
        assert!(matches!(err, Err(StoreError::DuplicateKey)));
    }

    #[test]
    fn builder_rejects_zero_shards_and_vnodes() {
        assert!(ShardedStoreBuilder::<u64>::new().shards(0).build().is_err());
        assert!(ShardedStoreBuilder::<u64>::new().vnodes(0).build().is_err());
    }

    #[test]
    fn capacity_is_per_shard() {
        let mut b = ShardedStoreBuilder::new()
            .shards(4)
            .capacity_per_shard(2)
            .initial_width(InitialWidth::Fixed(4.0));
        for k in 0..40u64 {
            b = b.source(k, k as f64);
        }
        let s = b.build().unwrap();
        assert!(s.cached_len() <= 8, "cached {} > 4 shards * capacity 2", s.cached_len());
        for i in 0..4 {
            assert!(s.shard(i).unwrap().cached_len() <= 2);
        }
    }
}
