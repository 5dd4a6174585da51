//! The `PrecisionStore` façade and its builder.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use apcache_core::cache::Cache;
use apcache_core::cost::CostModel;
use apcache_core::error::ProtocolError;
use apcache_core::policy::ApproxSpec;
use apcache_core::source::{Refresh, Source};
use apcache_core::{Interval, Key, Rng, TimeMs};
use apcache_queries::{evaluate, evaluate_relative, AggregateKind, ItemBound, PrecisionConstraint};
use apcache_spool::{SpoolConfig, SpoolIo, StdFsIo};

use crate::codec::KeyCodec;
use crate::constraint::Constraint;
use crate::error::StoreError;
use crate::metrics::StoreMetrics;
use crate::migrate::KeyState;
use crate::policy::{InitialWidth, PolicySpec};
use crate::spool::{self as spool_codec, Mutation, SnapshotImage, StoreSpool};

/// An answer to a point read: the cached interval when it was precise
/// enough, or the exact value when a refresh was needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// A valid interval `[L, H]` guaranteed to contain the exact value.
    Interval(Interval),
    /// The exact value, fetched from the source.
    Exact(f64),
}

impl Answer {
    /// The answer as an interval (a point interval for exact answers).
    pub fn interval(&self) -> Interval {
        match *self {
            Answer::Interval(iv) => iv,
            Answer::Exact(v) => Interval::point(v).expect("sources only hold finite values"),
        }
    }

    /// Width of the answer (0 for exact answers).
    pub fn width(&self) -> f64 {
        self.interval().width()
    }

    /// Whether the answer is exact.
    pub fn is_exact(&self) -> bool {
        self.interval().is_exact()
    }

    /// Whether `v` is consistent with this answer.
    pub fn contains(&self, v: f64) -> bool {
        self.interval().contains(v)
    }

    /// A point estimate: the exact value, or the interval midpoint (`None`
    /// for half-/unbounded intervals, which have no finite midpoint).
    pub fn estimate(&self) -> Option<f64> {
        match *self {
            Answer::Exact(v) => Some(v),
            Answer::Interval(iv) => iv.center(),
        }
    }
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Answer::Exact(v) => write!(f, "={v}"),
            Answer::Interval(iv) => write!(f, "{iv}"),
        }
    }
}

/// Result of [`PrecisionStore::read`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadResult {
    /// The answer; always satisfies the constraint the read ran with.
    pub answer: Answer,
    /// Whether the read triggered a query-initiated refresh (and therefore
    /// paid `C_qr` and shrank the key's interval width).
    pub refreshed: bool,
}

/// Result of [`PrecisionStore::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Number of value-initiated refreshes the write caused (0 when the new
    /// value stayed inside the cached interval, 1 when it escaped).
    pub refreshes: usize,
}

impl WriteOutcome {
    /// Whether the write escaped the cached interval.
    pub fn escaped(&self) -> bool {
        self.refreshes > 0
    }
}

/// Result of [`PrecisionStore::aggregate`].
#[derive(Debug, Clone)]
pub struct AggregateOutcome<K> {
    /// The answer interval; its width satisfies the constraint the query
    /// ran with.
    pub answer: Interval,
    /// Keys that were fetched exactly (query-initiated refreshes), in
    /// fetch order.
    pub refreshed: Vec<K>,
}

/// Builder for [`PrecisionStore`]: cost model, adaptivity, thresholds,
/// cache capacity, and the initial key population.
///
/// ```
/// use apcache_store::{Constraint, PolicySpec, StoreBuilder};
/// use apcache_core::cost::CostModel;
///
/// let mut store = StoreBuilder::new()
///     .cost(CostModel::multiversion())
///     .alpha(1.0)
///     .thresholds(0.0, f64::INFINITY)
///     .source("alpha", 10.0)
///     .source_with_policy("beta", 20.0, PolicySpec::Fixed { width: 4.0 })
///     .build()
///     .unwrap();
/// assert!(store.read(&"beta", Constraint::Absolute(4.0), 0).unwrap().answer.contains(20.0));
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuilder<K> {
    cost: CostModel,
    alpha: f64,
    gamma0: f64,
    gamma1: f64,
    capacity: Option<usize>,
    initial_width: InitialWidth,
    default_policy: PolicySpec,
    rng: Rng,
    sources: Vec<(K, f64, Option<PolicySpec>)>,
    spool: Option<SpoolSetup<K>>,
}

/// Spool attachment captured at `with_spool` time: the directory, tuning,
/// and the key/snapshot encoders as plain `fn` pointers so the builder
/// (and store) stay `Debug + Clone + Send` without a `KeyCodec` bound on
/// every impl.
#[derive(Debug, Clone)]
struct SpoolSetup<K> {
    dir: String,
    cfg: SpoolConfig,
    encode: fn(&K, &mut Vec<u8>),
    encode_snapshot: fn(&SnapshotImage<K>, &mut Vec<u8>),
}

impl<K> Default for StoreBuilder<K> {
    fn default() -> Self {
        StoreBuilder {
            cost: CostModel::multiversion(),
            alpha: 1.0,
            gamma0: 0.0,
            gamma1: f64::INFINITY,
            capacity: None,
            initial_width: InitialWidth::default(),
            default_policy: PolicySpec::Adaptive,
            rng: Rng::seed_from_u64(0),
            sources: Vec::new(),
            spool: None,
        }
    }
}

impl<K: Hash + Ord + Clone> StoreBuilder<K> {
    /// Start from the paper's recommended tuning: multiversion costs
    /// (`θ = 1`), `α = 1`, no thresholds, unbounded cache.
    pub fn new() -> Self {
        StoreBuilder::default()
    }

    /// Refresh cost model (determines the cost factor θ).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Adaptivity parameter α (widths move by a factor of `1 + α`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Snapping thresholds: widths below `γ0` become exact copies, widths
    /// at or above `γ1` become uncached.
    pub fn thresholds(mut self, gamma0: f64, gamma1: f64) -> Self {
        self.gamma0 = gamma0;
        self.gamma1 = gamma1;
        self
    }

    /// Cache capacity κ (widest-first eviction); unbounded by default.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Rule for choosing starting interval widths.
    pub fn initial_width(mut self, rule: InitialWidth) -> Self {
        self.initial_width = rule;
        self
    }

    /// Policy used for keys without a per-key override.
    pub fn default_policy(mut self, spec: PolicySpec) -> Self {
        self.default_policy = spec;
        self
    }

    /// Random stream for the policies' probabilistic width adjustments
    /// (store operation is deterministic given this stream).
    pub fn rng(mut self, rng: Rng) -> Self {
        self.rng = rng;
        self
    }

    /// Register a source with the default policy.
    pub fn source(mut self, key: K, initial_value: f64) -> Self {
        self.sources.push((key, initial_value, None));
        self
    }

    /// Register a source with a per-key policy override.
    pub fn source_with_policy(mut self, key: K, initial_value: f64, spec: PolicySpec) -> Self {
        self.sources.push((key, initial_value, Some(spec)));
        self
    }

    /// Persist the store in a durable spool directory (created if
    /// missing), with default tuning: 1 MiB segments, fsync on every
    /// append. The directory is claimed for a **new** generation — an
    /// initial snapshot of the freshly built store supersedes any state a
    /// previous process left there. Use
    /// [`PrecisionStore::recover`] to resume a previous generation
    /// instead.
    pub fn with_spool(self, dir: impl Into<String>) -> Self
    where
        K: KeyCodec,
    {
        self.with_spool_config(dir, SpoolConfig::default())
    }

    /// [`with_spool`](StoreBuilder::with_spool) with explicit segment
    /// size / fsync tuning.
    pub fn with_spool_config(mut self, dir: impl Into<String>, cfg: SpoolConfig) -> Self
    where
        K: KeyCodec,
    {
        self.spool = Some(SpoolSetup {
            dir: dir.into(),
            cfg,
            encode: K::encode_key,
            encode_snapshot: spool_codec::encode_snapshot::<K>,
        });
        self
    }

    /// Assemble the store, installing every registered source's initial
    /// approximation at time 0.
    pub fn build(self) -> Result<PrecisionStore<K>, StoreError> {
        let cache = match self.capacity {
            Some(k) => Cache::new(k)?,
            None => Cache::unbounded(),
        };
        let mut store = PrecisionStore {
            cost: self.cost,
            alpha: self.alpha,
            gamma0: self.gamma0,
            gamma1: self.gamma1,
            initial_width: self.initial_width,
            default_policy: self.default_policy,
            keys: Vec::new(),
            index: HashMap::new(),
            sources: Vec::new(),
            specs: Vec::new(),
            cache,
            rng: self.rng,
            metrics: StoreMetrics::new(),
            spool: None,
        };
        for (key, value, spec) in self.sources {
            store.insert_inner(key, value, spec, 0)?;
        }
        if let Some(setup) = self.spool {
            store.attach_spool_parts(
                Box::new(StdFsIo::new()),
                &setup.dir,
                setup.cfg,
                setup.encode,
                setup.encode_snapshot,
            )?;
        }
        Ok(store)
    }
}

/// The unified serving façade: a precision-parameterized key-value store
/// running the SIGMOD 2001 refresh protocol behind four verbs —
/// [`read`](PrecisionStore::read), [`write`](PrecisionStore::write),
/// [`aggregate`](PrecisionStore::aggregate), and
/// [`metrics`](PrecisionStore::metrics).
///
/// Keys are generic; internally they are interned to dense protocol ids so
/// the core source/cache objects stay allocation-light.
#[derive(Debug)]
pub struct PrecisionStore<K> {
    cost: CostModel,
    alpha: f64,
    gamma0: f64,
    gamma1: f64,
    initial_width: InitialWidth,
    default_policy: PolicySpec,
    /// Interned id → application key.
    keys: Vec<K>,
    /// Application key → interned id.
    index: HashMap<K, u32>,
    /// One protocol source per key, indexed by interned id.
    sources: Vec<Source>,
    /// The policy recipe each key was registered with, indexed by interned
    /// id — kept so migration can rebuild the same policy elsewhere.
    specs: Vec<PolicySpec>,
    cache: Cache,
    rng: Rng,
    metrics: StoreMetrics<K>,
    /// Durable write-ahead spool, when attached. Mutations are logged
    /// *after* they apply; reads never touch it.
    spool: Option<StoreSpool<K>>,
}

impl<K: Hash + Ord + Clone> PrecisionStore<K> {
    /// Entry point: a builder with the paper's recommended tuning.
    pub fn builder() -> StoreBuilder<K> {
        StoreBuilder::new()
    }

    fn id_of(&self, key: &K) -> Result<u32, StoreError> {
        self.index.get(key).copied().ok_or(StoreError::UnknownKey)
    }

    fn insert_inner(
        &mut self,
        key: K,
        value: f64,
        spec: Option<PolicySpec>,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        if self.index.contains_key(&key) {
            return Err(StoreError::DuplicateKey);
        }
        let id = u32::try_from(self.keys.len())
            .map_err(|_| StoreError::Config("store key space exhausted (u32 ids)".into()))?;
        let spec = spec.unwrap_or(self.default_policy);
        let policy = spec.build(
            &self.cost,
            self.alpha,
            self.gamma0,
            self.gamma1,
            self.initial_width.for_value(value),
        )?;
        let (source, refresh) = Source::new(Key(id), value, policy, now)?;
        self.cache.apply_refresh(refresh);
        self.sources.push(source);
        self.specs.push(spec);
        self.index.insert(key.clone(), id);
        self.keys.push(key);
        if self.spool.is_some() {
            let key = self.keys[id as usize].clone();
            self.log_insert(&key, value, spec, now)?;
        }
        Ok(())
    }

    /// Register a new source after construction, with the default policy.
    pub fn insert(&mut self, key: K, value: f64, now: TimeMs) -> Result<(), StoreError> {
        self.insert_inner(key, value, None, now)
    }

    /// Register a new source after construction, with a per-key policy.
    pub fn insert_with_policy(
        &mut self,
        key: K,
        value: f64,
        spec: PolicySpec,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        self.insert_inner(key, value, Some(spec), now)
    }

    /// Read `key` to the given precision.
    ///
    /// If the cached interval already satisfies the constraint, it is
    /// returned at zero message cost. Otherwise the store performs one
    /// query-initiated refresh: the exact value is fetched (cost `C_qr`),
    /// a narrower approximation is installed, and the policy shrinks its
    /// width (`W ← W/(1+α)` with probability `min{1/θ, 1}`).
    pub fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, StoreError> {
        constraint.validate()?;
        let id = self.id_of(key)?;
        // An uncached (e.g. evicted) key offers the unbounded interval; a
        // constraint loose enough to accept it is still a hit, matching
        // the aggregate planner's unconstrained behavior.
        let interval = self.cache.interval_at(Key(id), now).unwrap_or_else(Interval::unbounded);
        if constraint.satisfied_by(&interval) {
            self.metrics.record_read(key, true);
            return Ok(ReadResult { answer: Answer::Interval(interval), refreshed: false });
        }
        let response = self.sources[id as usize].serve_exact(now, &mut self.rng);
        self.cache.apply_refresh(response.refresh);
        self.metrics.record_read(key, false);
        self.metrics.record_qr(key, self.cost.c_qr());
        // A refresh shrinks the policy width — durable state. Hits are
        // pure observations and are not logged.
        self.log_refresh(key, true, now)?;
        Ok(ReadResult { answer: Answer::Exact(response.value), refreshed: true })
    }

    /// Push a new exact value for `key` (the source side of the protocol).
    ///
    /// If the value escapes the cached interval, one value-initiated
    /// refresh re-centers the approximation (cost `C_vr`) and the policy
    /// grows its width (`W ← W·(1+α)` with probability `min{θ, 1}`).
    pub fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, StoreError> {
        let id = self.id_of(key)?;
        let refresh = self.sources[id as usize].apply_update(value, now, &mut self.rng)?;
        self.metrics.record_write(key);
        let escaped = refresh.is_some();
        if let Some(refresh) = refresh {
            self.metrics.record_vr(key, self.cost.c_vr());
            self.cache.apply_refresh(refresh);
        }
        self.log_write(key, value, now)?;
        Ok(WriteOutcome { refreshes: usize::from(escaped) })
    }

    /// Apply a batch of writes in order, resolving every key in one pass.
    ///
    /// Semantically identical to calling [`write`](PrecisionStore::write)
    /// for each `(key, value)` pair in slice order — escape detection and
    /// width adaptation see the same sequence — but the whole batch is
    /// validated up front (unknown keys, non-finite values), so a failed
    /// batch applies **no** write, matching the all-or-nothing contract of
    /// [`aggregate`](PrecisionStore::aggregate). The returned outcome sums
    /// the per-write refresh counts; tick-style workloads (a simulator
    /// updating every source once per tick) use this to push one batch per
    /// tick instead of `n` routed calls.
    pub fn write_batch(
        &mut self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<WriteOutcome, StoreError> {
        let ids: Vec<u32> = items.iter().map(|(k, _)| self.id_of(k)).collect::<Result<_, _>>()?;
        for &(_, value) in items {
            if !value.is_finite() {
                return Err(ProtocolError::NonFiniteValue(value).into());
            }
        }
        let mut total = 0;
        for (&id, (key, value)) in ids.iter().zip(items) {
            let refresh = self.sources[id as usize].apply_update(*value, now, &mut self.rng)?;
            self.metrics.record_write(key);
            if let Some(refresh) = refresh {
                total += 1;
                self.metrics.record_vr(key, self.cost.c_vr());
                self.cache.apply_refresh(refresh);
            }
            self.log_write(key, *value, now)?;
        }
        Ok(WriteOutcome { refreshes: total })
    }

    /// Bounded aggregate over `keys`: SUM/MAX/MIN/AVG to the given
    /// precision, fetching exactly (and only) the keys the
    /// `apcache-queries` planner selects.
    pub fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, StoreError> {
        constraint.validate()?;
        let ids: Vec<u32> = keys.iter().map(|k| self.id_of(k)).collect::<Result<_, _>>()?;
        let items: Vec<ItemBound> = ids
            .iter()
            .map(|&id| {
                ItemBound::new(
                    Key(id),
                    self.cache.interval_at(Key(id), now).unwrap_or_else(Interval::unbounded),
                )
            })
            .collect();
        // Split borrows so the fetch closure can reach sources, cache, RNG,
        // and metrics while `items` stays shared.
        let sources = &mut self.sources;
        let cache = &mut self.cache;
        let rng = &mut self.rng;
        let metrics = &mut self.metrics;
        let key_names = &self.keys;
        let cost = self.cost;
        let fetch = |k: Key| -> f64 {
            let resp = sources[k.0 as usize].serve_exact(now, rng);
            metrics.record_qr(&key_names[k.0 as usize], cost.c_qr());
            cache.apply_refresh(resp.refresh);
            resp.value
        };
        let outcome = match constraint {
            Constraint::Absolute(delta) => {
                let pc = PrecisionConstraint::new(delta)?;
                evaluate(kind, pc, &items, fetch)
            }
            Constraint::Exact => evaluate(kind, PrecisionConstraint::exact(), &items, fetch),
            Constraint::Relative(frac) => evaluate_relative(kind, frac, &items, fetch),
        };
        let outcome = outcome?;
        let refreshed: Vec<K> =
            outcome.refreshed.into_iter().map(|k| self.keys[k.0 as usize].clone()).collect();
        // Each planner-selected fetch shrank that key's policy width; log
        // them in fetch order so replay re-runs the same refreshes.
        for key in &refreshed {
            self.log_refresh(key, false, now)?;
        }
        Ok(AggregateOutcome { answer: outcome.answer, refreshed })
    }

    /// Widen `key`'s cached interval to at least `width`, keeping it
    /// centered — the truth-preserving degradation applied when a TTL
    /// lease on the key lapses without a source contact. Returns the new
    /// interval, or `Ok(None)` when the key is uncached or already at
    /// least that wide. The source's policy state is untouched: the next
    /// QR or VR re-installs a policy-governed approximation, so the
    /// degradation self-heals on contact.
    pub fn widen_cached(
        &mut self,
        key: &K,
        width: f64,
        now: TimeMs,
    ) -> Result<Option<Interval>, StoreError> {
        if width.is_nan() || width < 0.0 {
            return Err(StoreError::InvalidConstraint(width));
        }
        let id = self.id_of(key)?;
        let widened = self.cache.widen(Key(id), width, now);
        if widened.is_some() {
            self.log_widen(key, width, now)?;
        }
        Ok(widened)
    }

    /// Serving metrics: per-key and aggregate refresh/cost counters.
    pub fn metrics(&self) -> &StoreMetrics<K> {
        &self.metrics
    }

    /// The refresh cost model the store charges against.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the store has no sources.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `key` has a registered source.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Iterate over the registered keys in registration order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.keys.iter()
    }

    /// Number of keys currently resident in the cache (≤ capacity κ).
    pub fn cached_len(&self) -> usize {
        self.cache.len()
    }

    /// Whether `key` is currently resident in the cache.
    pub fn is_cached(&self, key: &K) -> bool {
        self.id_of(key).map(|id| self.cache.contains(Key(id))).unwrap_or(false)
    }

    /// The interval the cache currently holds for `key` at time `now`
    /// (`None` when uncached or unknown).
    pub fn cached_interval(&self, key: &K, now: TimeMs) -> Option<Interval> {
        let id = self.id_of(key).ok()?;
        self.cache.interval_at(Key(id), now)
    }

    /// The policy's internal ("original") width for `key` — the quantity
    /// the `W ← W·(1+α)` / `W ← W/(1+α)` adaptation moves.
    pub fn internal_width(&self, key: &K) -> Option<f64> {
        let id = self.id_of(key).ok()?;
        Some(self.sources[id as usize].internal_width())
    }

    /// The source-side exact value for `key` (the server's view; reading it
    /// through this accessor models no network cost).
    pub fn value(&self, key: &K) -> Option<f64> {
        let id = self.id_of(key).ok()?;
        Some(self.sources[id as usize].value())
    }

    /// Detach `key` from this store, returning its complete protocol
    /// state — value, policy recipe and adaptation words, the registered
    /// approximation, cache residency, and serving counters.
    ///
    /// Importing the result into another store ([`import_key`]) continues
    /// the key's protocol history bit-for-bit; this is the store half of
    /// live shard migration. Interned ids stay dense: the last-registered
    /// key slides into the vacated slot (its id changes, which is
    /// invisible outside the store).
    ///
    /// [`import_key`]: PrecisionStore::import_key
    pub fn export_key(&mut self, key: &K) -> Result<KeyState<K>, StoreError> {
        let id = self.id_of(key)?;
        let idx = id as usize;
        let source = &self.sources[idx];
        let source_spec = source.spec();
        let policy_state = source.policy_state();
        let value = source.value();
        let cached = self.cache.remove(Key(id)).map(|e| (e.spec, e.internal_width));
        let metrics = self.metrics.extract_key(key);
        self.index.remove(key);
        let key = self.keys.swap_remove(idx);
        self.sources.swap_remove(idx);
        let spec = self.specs.swap_remove(idx);
        if idx < self.keys.len() {
            // The former last key now lives in the vacated slot: repoint
            // its index entry, its source's protocol key, and its cache
            // entry (removing one entry made room, so re-admission under
            // the new id never evicts).
            let moved_id = self.keys.len() as u32;
            *self.index.get_mut(&self.keys[idx]).expect("moved key is indexed") = id;
            self.sources[idx].rekey(Key(id));
            if let Some(entry) = self.cache.remove(Key(moved_id)) {
                self.cache.apply_refresh(Refresh {
                    key: Key(id),
                    spec: entry.spec,
                    internal_width: entry.internal_width,
                });
            }
        }
        Ok(KeyState { key, value, spec, policy_state, source_spec, cached, metrics })
    }

    /// Detach a whole set of keys, atomically and in request order: an
    /// unknown key ([`StoreError::UnknownKey`]) or a key named twice
    /// ([`StoreError::DuplicateKey`]) rejects the call before anything is
    /// detached. The list can come from a wire peer, so repetition is
    /// checked, not assumed away: detaching `k` a second time would fail
    /// midway and drop the first, already detached, copy of its state.
    pub fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, StoreError> {
        let mut seen = HashSet::with_capacity(keys.len());
        for key in keys {
            if !self.index.contains_key(key) {
                return Err(StoreError::UnknownKey);
            }
            if !seen.insert(key) {
                return Err(StoreError::DuplicateKey);
            }
        }
        keys.iter().map(|key| self.export_key(key)).collect()
    }

    /// Attach a key previously detached with [`export_key`] (possibly from
    /// another store with the same cost/α/γ configuration), restoring its
    /// policy state, registered approximation, cache residency, and
    /// counters.
    ///
    /// The cached entry is re-admitted through the normal capacity rules,
    /// so on a κ-bounded store it may evict a wider resident — exactly as
    /// if the key had refreshed here.
    ///
    /// The state may have been decoded from a peer's `ImportKeys` frame or
    /// a snapshot file, so the paper's one invariant is checked before
    /// anything is installed: a `Constant` approximation — registered or
    /// cached, and every policy of the paper proper emits only those —
    /// that does not contain the value is rejected with
    /// [`StoreError::Config`]. `Growing`/`Drifting` specs move with a
    /// clock this call is not given and are installed unchecked.
    ///
    /// [`export_key`]: PrecisionStore::export_key
    pub fn import_key(&mut self, state: KeyState<K>) -> Result<(), StoreError> {
        if self.index.contains_key(&state.key) {
            return Err(StoreError::DuplicateKey);
        }
        let cached_spec = state.cached.as_ref().map(|(spec, _)| spec);
        for spec in std::iter::once(&state.source_spec).chain(cached_spec) {
            if matches!(spec, ApproxSpec::Constant(iv) if !iv.contains(state.value)) {
                return Err(StoreError::Config(
                    "imported approximation does not contain the key's value".into(),
                ));
            }
        }
        let id = u32::try_from(self.keys.len())
            .map_err(|_| StoreError::Config("store key space exhausted (u32 ids)".into()))?;
        let mut policy = state.spec.build(
            &self.cost,
            self.alpha,
            self.gamma0,
            self.gamma1,
            self.initial_width.for_value(state.value),
        )?;
        if !policy.restore_state(&state.policy_state) {
            return Err(StoreError::Config(
                "imported policy state does not match the key's policy spec".into(),
            ));
        }
        let source = Source::from_snapshot(Key(id), state.value, policy, state.source_spec)?;
        if let Some((spec, internal_width)) = state.cached {
            self.cache.apply_refresh(Refresh { key: Key(id), spec, internal_width });
        }
        self.sources.push(source);
        self.specs.push(state.spec);
        self.index.insert(state.key.clone(), id);
        self.keys.push(state.key.clone());
        if let Some(m) = state.metrics {
            self.metrics.install_key(state.key, m);
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Durability (write-ahead spool).
    // -----------------------------------------------------------------

    fn log_write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<(), StoreError> {
        match &mut self.spool {
            Some(spool) => spool.log_write(key, value, now),
            None => Ok(()),
        }
    }

    fn log_insert(
        &mut self,
        key: &K,
        value: f64,
        spec: PolicySpec,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        match &mut self.spool {
            Some(spool) => spool.log_insert(key, value, Some(&spec), now),
            None => Ok(()),
        }
    }

    fn log_widen(&mut self, key: &K, width: f64, now: TimeMs) -> Result<(), StoreError> {
        match &mut self.spool {
            Some(spool) => spool.log_widen(key, width, now),
            None => Ok(()),
        }
    }

    fn log_refresh(
        &mut self,
        key: &K,
        counted_as_read: bool,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        match &mut self.spool {
            Some(spool) => spool.log_refresh(key, counted_as_read, now),
            None => Ok(()),
        }
    }

    fn attach_spool_parts(
        &mut self,
        io: Box<dyn SpoolIo>,
        dir: &str,
        cfg: SpoolConfig,
        encode: fn(&K, &mut Vec<u8>),
        encode_snapshot: fn(&SnapshotImage<K>, &mut Vec<u8>),
    ) -> Result<(), StoreError> {
        let (spool, _previous_generation) =
            StoreSpool::open(io, dir, cfg, encode, encode_snapshot)?;
        self.spool = Some(spool);
        // Claim the directory for this generation: a snapshot of the
        // current state supersedes (and deletes) whatever was there.
        self.checkpoint()
    }

    /// Whether a durable spool is attached.
    pub fn has_spool(&self) -> bool {
        self.spool.is_some()
    }

    /// The attached spool directory, if any.
    pub fn spool_dir(&self) -> Option<&str> {
        self.spool.as_ref().map(|s| s.dir())
    }

    /// Detach the spool (stop logging) and return its I/O handle. Test
    /// harnesses use this to take a fault-injecting `MemIo` back, crash
    /// it deterministically, and recover from the wreckage.
    pub fn detach_spool(&mut self) -> Option<Box<dyn SpoolIo>> {
        self.spool.take().map(|s| s.into_io())
    }

    /// Write a full-state snapshot to the spool and compact away every
    /// log segment it supersedes. A no-op `Ok` when no spool is attached.
    ///
    /// Recovery cost is proportional to the records logged since the last
    /// checkpoint, so long-running deployments should checkpoint
    /// periodically (the runtime exposes this as a fleet-wide verb).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        if self.spool.is_none() {
            return Ok(());
        }
        let image = self.snapshot_image();
        self.spool.as_mut().expect("checked above").write_snapshot_image(&image)
    }

    /// Non-destructive full-state image: every builder parameter, the RNG
    /// stream position, and each key's protocol state in interned-id
    /// order (so recovery reassigns identical dense ids).
    fn snapshot_image(&self) -> SnapshotImage<K> {
        let capacity = match self.cache.capacity() {
            usize::MAX => None,
            k => Some(k),
        };
        let keys = (0..self.keys.len()).map(|idx| self.key_state_of(idx)).collect();
        SnapshotImage {
            cost: self.cost,
            alpha: self.alpha,
            gamma0: self.gamma0,
            gamma1: self.gamma1,
            capacity,
            initial_width: self.initial_width,
            default_policy: self.default_policy,
            rng_words: self.rng.state_words(),
            keys,
        }
    }

    /// [`KeyState`] of the key interned at `idx`, without detaching it
    /// (the non-destructive sibling of [`export_key`]).
    ///
    /// [`export_key`]: PrecisionStore::export_key
    fn key_state_of(&self, idx: usize) -> KeyState<K> {
        let source = &self.sources[idx];
        let cached = self.cache.get(Key(idx as u32)).map(|e| (e.spec, e.internal_width));
        let metrics = self.metrics.for_key(&self.keys[idx]).copied();
        KeyState {
            key: self.keys[idx].clone(),
            value: source.value(),
            spec: self.specs[idx],
            policy_state: source.policy_state(),
            source_spec: source.spec(),
            cached,
            metrics,
        }
    }

    /// Re-apply one replayed log record through the normal verbs. The
    /// spool is detached during replay, so nothing is re-logged.
    fn replay(&mut self, mutation: Mutation<K>) -> Result<(), StoreError> {
        debug_assert!(self.spool.is_none(), "replay must run with the spool detached");
        match mutation {
            Mutation::Write { key, value, now } => {
                self.write(&key, value, now)?;
            }
            Mutation::Insert { key, value, spec, now } => {
                self.insert_inner(key, value, spec, now)?;
            }
            Mutation::Widen { key, width, now } => {
                self.widen_cached(&key, width, now)?;
            }
            Mutation::Refresh { key, counted_as_read, now } => {
                // Re-run the exact-fetch against the replayed source: the
                // value is whatever the preceding replayed writes left
                // there, so the recovered interval re-centers identically
                // and the policy applies the same width shrink.
                let id = self.id_of(&key)?;
                let response = self.sources[id as usize].serve_exact(now, &mut self.rng);
                self.cache.apply_refresh(response.refresh);
                if counted_as_read {
                    self.metrics.record_read(&key, false);
                }
                self.metrics.record_qr(&key, self.cost.c_qr());
            }
        }
        Ok(())
    }
}

impl<K: KeyCodec + Hash + Ord + Clone> PrecisionStore<K> {
    /// Attach a spool through a caller-supplied [`SpoolIo`] (the
    /// fault-injecting `MemIo` in tests; [`StdFsIo`] via
    /// [`StoreBuilder::with_spool`] in production). Claims `dir` for a
    /// new generation by writing an initial snapshot of the current
    /// state.
    pub fn attach_spool_io(
        &mut self,
        io: Box<dyn SpoolIo>,
        dir: &str,
        cfg: SpoolConfig,
    ) -> Result<(), StoreError> {
        self.attach_spool_parts(io, dir, cfg, K::encode_key, spool_codec::encode_snapshot::<K>)
    }

    /// Rebuild a store from the spool directory a previous process left
    /// behind: the newest durable snapshot plus every intact record
    /// logged after it. The recovered store resumes serving with its
    /// converged per-key widths — and keeps logging to the same spool.
    ///
    /// The recovered store is bit-identical — answers, escapes, widths —
    /// to the original at its last durable point: every state-changing
    /// step (writes, inserts, widens, refreshing reads and aggregate
    /// fetches) is logged and replayed in order, and the snapshot carries
    /// the RNG stream position, so even probabilistic width adaptation
    /// (`θ ≠ 1`) resumes where it left off. Only read *hit* counters can
    /// undercount, since pure hits are not logged.
    pub fn recover(dir: &str) -> Result<Self, StoreError> {
        Self::recover_with_config(dir, SpoolConfig::default())
    }

    /// [`recover`](PrecisionStore::recover) with explicit spool tuning.
    pub fn recover_with_config(dir: &str, cfg: SpoolConfig) -> Result<Self, StoreError> {
        Self::recover_with_io(Box::new(StdFsIo::new()), dir, cfg)
    }

    /// [`recover`](PrecisionStore::recover) through a caller-supplied
    /// [`SpoolIo`] (crash-simulation harnesses).
    pub fn recover_with_io(
        io: Box<dyn SpoolIo>,
        dir: &str,
        cfg: SpoolConfig,
    ) -> Result<Self, StoreError> {
        let (spool, recovery) =
            StoreSpool::open(io, dir, cfg, K::encode_key, spool_codec::encode_snapshot::<K>)?;
        let snapshot = recovery.snapshot.ok_or_else(|| {
            StoreError::Spool(format!("no snapshot in spool directory {dir}: nothing to recover"))
        })?;
        let image = spool_codec::decode_snapshot::<K>(&snapshot)?;
        let mut store = Self::from_image(image)?;
        for record in &recovery.records {
            store.replay(spool_codec::decode_mutation::<K>(record)?)?;
        }
        store.spool = Some(spool);
        Ok(store)
    }

    /// Materialize a store from a decoded snapshot image (no spool
    /// attached yet; replay follows).
    fn from_image(image: SnapshotImage<K>) -> Result<Self, StoreError> {
        let cache = match image.capacity {
            Some(k) => Cache::new(k)?,
            None => Cache::unbounded(),
        };
        let rng = Rng::from_state(image.rng_words)
            .ok_or_else(|| StoreError::Spool("invalid RNG state in snapshot".into()))?;
        let mut store = PrecisionStore {
            cost: image.cost,
            alpha: image.alpha,
            gamma0: image.gamma0,
            gamma1: image.gamma1,
            initial_width: image.initial_width,
            default_policy: image.default_policy,
            keys: Vec::new(),
            index: HashMap::new(),
            sources: Vec::new(),
            specs: Vec::new(),
            cache,
            rng,
            metrics: StoreMetrics::new(),
            spool: None,
        };
        // Import in image order: ids are reassigned densely, so the
        // recovered store interns every key under its original id.
        for state in image.keys {
            store.import_key(state)?;
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PrecisionStore<&'static str> {
        StoreBuilder::new()
            .initial_width(InitialWidth::Fixed(10.0))
            .source("a", 100.0)
            .source("b", 200.0)
            .build()
            .unwrap()
    }

    #[test]
    fn read_hits_when_precise_enough() {
        let mut s = store();
        let r = s.read(&"a", Constraint::Absolute(10.0), 0).unwrap();
        assert!(!r.refreshed);
        assert_eq!(r.answer.interval(), Interval::new(95.0, 105.0).unwrap());
        assert_eq!(s.metrics().qr_count(), 0);
        assert_eq!(s.metrics().for_key(&"a").unwrap().cache_hits, 1);
    }

    #[test]
    fn read_refreshes_when_too_wide() {
        let mut s = store();
        let r = s.read(&"a", Constraint::Absolute(5.0), 0).unwrap();
        assert!(r.refreshed);
        assert_eq!(r.answer, Answer::Exact(100.0));
        assert_eq!(s.metrics().qr_count(), 1);
        // θ = 1: the shrink is deterministic.
        assert_eq!(s.internal_width(&"a"), Some(5.0));
    }

    #[test]
    fn exact_and_relative_constraints() {
        let mut s = store();
        let r = s.read(&"a", Constraint::Exact, 0).unwrap();
        assert_eq!(r.answer, Answer::Exact(100.0));
        // [95, 105] certifies 10/95 ≈ 10.5 % but not 5 %.
        let r = s.read(&"b", Constraint::Relative(0.1), 0).unwrap();
        assert!(!r.refreshed);
        let r = s.read(&"b", Constraint::Relative(0.01), 0).unwrap();
        assert!(r.refreshed);
    }

    #[test]
    fn write_inside_interval_is_free() {
        let mut s = store();
        let w = s.write(&"a", 103.0, 1_000).unwrap();
        assert!(!w.escaped());
        assert_eq!(s.metrics().vr_count(), 0);
        // The cached interval is unchanged; the source value moved.
        assert_eq!(s.value(&"a"), Some(103.0));
        assert_eq!(s.cached_interval(&"a", 1_000), Some(Interval::new(95.0, 105.0).unwrap()));
    }

    #[test]
    fn write_escape_triggers_vr_and_growth() {
        let mut s = store();
        let w = s.write(&"a", 110.0, 1_000).unwrap();
        assert!(w.escaped());
        assert_eq!(s.metrics().vr_count(), 1);
        assert_eq!(s.internal_width(&"a"), Some(20.0));
        let iv = s.cached_interval(&"a", 1_000).unwrap();
        assert!(iv.contains(110.0));
    }

    #[test]
    fn aggregate_fetches_planner_selection() {
        let mut s = store();
        // Two widths of 10: SUM width 20. δ = 12 needs exactly one fetch.
        let out =
            s.aggregate(AggregateKind::Sum, &["a", "b"], Constraint::Absolute(12.0), 0).unwrap();
        assert_eq!(out.refreshed.len(), 1);
        assert!(out.answer.width() <= 12.0);
        assert!(out.answer.contains(300.0));
        assert_eq!(s.metrics().qr_count(), 1);
    }

    #[test]
    fn aggregate_relative_and_exact() {
        let mut s = store();
        let out =
            s.aggregate(AggregateKind::Sum, &["a", "b"], Constraint::Relative(0.2), 0).unwrap();
        assert!(out.refreshed.is_empty());
        let out = s.aggregate(AggregateKind::Max, &["a", "b"], Constraint::Exact, 0).unwrap();
        assert!(out.answer.is_exact());
        assert_eq!(out.answer.lo(), 200.0);
    }

    #[test]
    fn unknown_and_duplicate_keys_error() {
        let mut s = store();
        assert!(matches!(s.read(&"zzz", Constraint::Exact, 0), Err(StoreError::UnknownKey)));
        assert!(matches!(s.write(&"zzz", 0.0, 0), Err(StoreError::UnknownKey)));
        assert!(matches!(
            s.aggregate(AggregateKind::Sum, &["a", "zzz"], Constraint::Exact, 0),
            Err(StoreError::UnknownKey)
        ));
        assert!(matches!(s.insert("a", 0.0, 0), Err(StoreError::DuplicateKey)));
    }

    #[test]
    fn invalid_constraints_error() {
        let mut s = store();
        assert!(s.read(&"a", Constraint::Absolute(-1.0), 0).is_err());
        assert!(s.read(&"a", Constraint::Relative(f64::NAN), 0).is_err());
        assert!(s
            .aggregate(AggregateKind::Sum, &["a"], Constraint::Absolute(f64::NAN), 0)
            .is_err());
    }

    #[test]
    fn insert_after_build_and_capacity() {
        let mut s: PrecisionStore<u64> = StoreBuilder::new()
            .capacity(2)
            .initial_width(InitialWidth::Fixed(4.0))
            .build()
            .unwrap();
        for i in 0..5u64 {
            s.insert(i, i as f64, 0).unwrap();
        }
        assert_eq!(s.len(), 5);
        assert!(s.cached_len() <= 2);
        // An unconstrained read of an evicted key is a (useless but free)
        // hit on the unbounded interval — mirroring the aggregate
        // planner's unconstrained contract.
        let victim = (0..5u64).find(|k| !s.is_cached(k)).unwrap();
        let r = s.read(&victim, Constraint::Absolute(f64::INFINITY), 0).unwrap();
        assert!(!r.refreshed);
        assert!(r.answer.interval().is_unbounded());
        assert_eq!(s.metrics().qr_count(), 0);
        // Any finite constraint forces the refresh.
        let r = s.read(&victim, Constraint::Absolute(100.0), 0).unwrap();
        assert!(r.refreshed);
        assert!(r.answer.contains(victim as f64));
    }

    #[test]
    fn non_finite_writes_rejected() {
        let mut s = store();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(s.write(&"a", bad, 0).is_err());
        }
        // Rejected writes are not counted as applied.
        assert!(s.metrics().for_key(&"a").is_none());
        // The store stays usable, and successful writes do count.
        assert!(s.write(&"a", 1.0, 0).is_ok());
        assert_eq!(s.metrics().for_key(&"a").unwrap().writes, 1);
    }

    #[test]
    fn write_batch_matches_sequential_writes() {
        let mut batched = store();
        let mut sequential = store();
        let updates = [("a", 104.0), ("b", 250.0), ("a", 112.0)];
        let out = batched.write_batch(&updates, 1_000).unwrap();
        let mut refreshes = 0;
        for (k, v) in updates {
            refreshes += sequential.write(&k, v, 1_000).unwrap().refreshes;
        }
        assert_eq!(out.refreshes, refreshes);
        assert!(out.escaped());
        for k in ["a", "b"] {
            assert_eq!(batched.value(&k), sequential.value(&k));
            assert_eq!(batched.internal_width(&k), sequential.internal_width(&k));
            assert_eq!(batched.cached_interval(&k, 1_000), sequential.cached_interval(&k, 1_000));
        }
        assert_eq!(batched.metrics().totals(), sequential.metrics().totals());
    }

    #[test]
    fn write_batch_is_all_or_nothing() {
        let mut s = store();
        // Unknown key in the middle: nothing before it applies either.
        assert!(matches!(
            s.write_batch(&[("a", 1.0), ("zzz", 2.0)], 0),
            Err(StoreError::UnknownKey)
        ));
        // Non-finite value: likewise rejected before any write.
        assert!(s.write_batch(&[("a", 1.0), ("b", f64::NAN)], 0).is_err());
        assert!(s.metrics().for_key(&"a").is_none());
        assert_eq!(s.value(&"a"), Some(100.0));
        // An empty batch is a no-op.
        assert_eq!(s.write_batch(&[], 0).unwrap().refreshes, 0);
    }

    #[test]
    fn widen_cached_degrades_and_self_heals() {
        let mut s = store();
        assert_eq!(s.cached_interval(&"a", 0), Some(Interval::new(95.0, 105.0).unwrap()));
        // Already-narrow targets and unknown keys behave predictably.
        assert_eq!(s.widen_cached(&"a", 5.0, 0).unwrap(), None);
        assert!(matches!(s.widen_cached(&"zzz", 50.0, 0), Err(StoreError::UnknownKey)));
        assert!(s.widen_cached(&"a", f64::NAN, 0).is_err());
        assert!(s.widen_cached(&"a", -1.0, 0).is_err());
        // Widening degrades in place, truth preserved.
        let iv = s.widen_cached(&"a", 30.0, 0).unwrap().unwrap();
        assert_eq!((iv.lo(), iv.hi()), (85.0, 115.0));
        assert!(iv.contains(s.value(&"a").unwrap()));
        assert_eq!(s.cached_interval(&"a", 0), Some(iv));
        // The policy state was untouched: the next refresh self-heals to
        // a policy-governed width.
        let r = s.read(&"a", Constraint::Absolute(5.0), 1_000).unwrap();
        assert!(r.refreshed);
        assert_eq!(s.internal_width(&"a"), Some(5.0));
        assert!(s.cached_interval(&"a", 1_000).unwrap().width() <= 5.0);
    }

    #[test]
    fn request_and_reply_types_are_send() {
        // The concurrent runtime ships these across actor threads; keep
        // them Send + Sync (and 'static for owned reply payloads). The
        // store itself only needs Send — each shard actor owns its store
        // exclusively, so Sync is never required.
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        fn assert_send<T: Send + 'static>() {}
        assert_send_sync::<Constraint>();
        assert_send_sync::<ReadResult>();
        assert_send_sync::<WriteOutcome>();
        assert_send_sync::<AggregateOutcome<String>>();
        assert_send_sync::<StoreMetrics<String>>();
        assert_send_sync::<StoreError>();
        assert_send::<PrecisionStore<String>>();
    }

    #[test]
    fn export_import_continues_protocol_bit_for_bit() {
        // Reference store: never resharded.
        let mut reference = store();
        // Subject: "a" is exported mid-run and imported into a second
        // store, which then serves the same traffic.
        let mut src = store();
        let mut dst: PrecisionStore<&'static str> =
            StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0)).build().unwrap();

        // Converge some state first: widths, counters, cached interval.
        for s in [&mut reference, &mut src] {
            s.write(&"a", 110.0, 1_000).unwrap(); // escape → VR, width 20
            s.read(&"a", Constraint::Absolute(5.0), 2_000).unwrap(); // QR, width 10
        }

        let state = src.export_key(&"a").unwrap();
        assert!(!src.contains_key(&"a"));
        assert!(src.contains_key(&"b"), "swap-remove keeps the other key");
        assert!(src.read(&"b", Constraint::Absolute(10.0), 2_000).is_ok());
        assert!(src.metrics().for_key(&"a").is_none());
        dst.import_key(state).unwrap();

        // Identical traffic after the move ⇒ identical protocol behavior.
        for (s, label) in [(&mut reference, "reference"), (&mut dst, "migrated")] {
            let r = s.read(&"a", Constraint::Absolute(3.0), 3_000).unwrap();
            assert!(r.refreshed, "{label}");
            let w = s.write(&"a", 140.0, 4_000).unwrap();
            assert!(w.escaped(), "{label}");
        }
        assert_eq!(reference.internal_width(&"a"), dst.internal_width(&"a"));
        assert_eq!(reference.cached_interval(&"a", 4_000), dst.cached_interval(&"a", 4_000));
        assert_eq!(reference.value(&"a"), dst.value(&"a"));
        assert_eq!(reference.metrics().for_key(&"a"), dst.metrics().for_key(&"a"));

        // Re-import under the same key is rejected.
        let dup = dst.export_key(&"a").unwrap();
        dst.import_key(dup.clone()).unwrap();
        assert!(matches!(dst.import_key(dup), Err(StoreError::DuplicateKey)));
        // Exporting an unknown key errors.
        assert!(matches!(src.export_key(&"zzz"), Err(StoreError::UnknownKey)));
    }

    #[test]
    fn export_keys_rejects_unknown_and_repeated_keys_before_detaching() {
        let mut s = store();
        s.write(&"a", 110.0, 1_000).unwrap(); // escape → VR, width 20
        let before = (s.internal_width(&"a"), s.metrics().for_key(&"a").cloned());
        assert!(matches!(s.export_keys(&["a", "a"]), Err(StoreError::DuplicateKey)));
        assert!(matches!(s.export_keys(&["b", "a", "b"]), Err(StoreError::DuplicateKey)));
        assert!(matches!(s.export_keys(&["a", "zzz"]), Err(StoreError::UnknownKey)));
        // Every rejected call left both keys registered with their state.
        assert_eq!((s.len(), s.value(&"a"), s.value(&"b")), (2, Some(110.0), Some(200.0)));
        assert_eq!((s.internal_width(&"a"), s.metrics().for_key(&"a").cloned()), before);
        // A well-formed set detaches in request order.
        let states = s.export_keys(&["b", "a"]).unwrap();
        assert_eq!(states.iter().map(|st| st.key).collect::<Vec<_>>(), ["b", "a"]);
        assert!(s.is_empty());
    }

    #[test]
    fn export_import_preserves_divergent_cache_entry() {
        // A lapsed lease widens the cache without telling the source; both
        // sides of the divergence must survive the move.
        let mut s = store();
        s.widen_cached(&"a", 30.0, 0).unwrap().unwrap();
        let state = s.export_key(&"a").unwrap();
        assert_eq!(state.cached.as_ref().unwrap().1, 30.0, "widened eviction key");
        let mut dst: PrecisionStore<&'static str> =
            StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0)).build().unwrap();
        dst.import_key(state).unwrap();
        let iv = dst.cached_interval(&"a", 0).unwrap();
        assert_eq!((iv.lo(), iv.hi()), (85.0, 115.0));
        // Source-side width is still the policy's 10 → next QR shrinks to 5.
        dst.read(&"a", Constraint::Absolute(5.0), 1_000).unwrap();
        assert_eq!(dst.internal_width(&"a"), Some(5.0));
    }

    #[test]
    fn import_rejects_an_approximation_that_excludes_the_value() {
        let mut src = store();
        // Value 100, registered [95, 105], cached — a lapsed lease — [85, 115].
        src.widen_cached(&"a", 30.0, 0).unwrap().unwrap();
        let honest = src.export_key(&"a").unwrap();
        let forged = ApproxSpec::Constant(Interval::new(0.0, 1.0).unwrap());
        let mut dst: PrecisionStore<&'static str> =
            StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0)).build().unwrap();
        for (source_spec, cached) in
            [(forged, honest.cached), (honest.source_spec, Some((forged, 1.0)))]
        {
            let state = KeyState { source_spec, cached, ..honest.clone() };
            assert!(matches!(dst.import_key(state), Err(StoreError::Config(_))));
            assert!(dst.is_empty() && dst.cached_interval(&"a", 0).is_none());
            assert!(dst.metrics().for_key(&"a").is_none());
        }
        // The two specs disagreeing is fine while both hold the value.
        dst.import_key(honest).unwrap();
        let r = dst.read(&"a", Constraint::Absolute(30.0), 0).unwrap();
        assert!(!r.refreshed && r.answer.contains(100.0));
    }

    #[test]
    fn recovery_refuses_a_snapshot_whose_interval_excludes_the_value() {
        use apcache_spool::{MemIo, Spool};

        let recover_from = |image: &SnapshotImage<String>| {
            let mut bytes = Vec::new();
            spool_codec::encode_snapshot(image, &mut bytes);
            let io: Box<dyn SpoolIo> = Box::new(MemIo::new());
            let (mut spool, _) = Spool::open(io, "spool", SpoolConfig::default()).unwrap();
            spool.snapshot(&bytes).unwrap();
            PrecisionStore::<String>::recover_with_io(
                spool.into_io(),
                "spool",
                SpoolConfig::default(),
            )
        };
        let store: PrecisionStore<String> = StoreBuilder::new()
            .initial_width(InitialWidth::Fixed(10.0))
            .source("a".to_string(), 100.0)
            .build()
            .unwrap();
        let mut image = store.snapshot_image();
        assert_eq!(recover_from(&image).unwrap().value(&"a".to_string()), Some(100.0));
        image.keys[0].cached = Some((ApproxSpec::Constant(Interval::new(0.0, 1.0).unwrap()), 1.0));
        assert!(matches!(recover_from(&image), Err(StoreError::Config(_))));
    }

    #[test]
    fn generic_string_keys_work() {
        let mut s: PrecisionStore<String> =
            StoreBuilder::new().source("temp/室内".to_string(), 21.5).build().unwrap();
        let r = s.read(&"temp/室内".to_string(), Constraint::Exact, 0).unwrap();
        assert_eq!(r.answer, Answer::Exact(21.5));
    }

    #[test]
    fn spool_crash_recovery_is_bit_identical() {
        use apcache_spool::{MemIo, SpoolConfig};

        let build = || -> PrecisionStore<String> {
            StoreBuilder::new()
                .initial_width(InitialWidth::Fixed(10.0))
                .source("a".to_string(), 100.0)
                .source("b".to_string(), 200.0)
                .build()
                .unwrap()
        };
        let mut reference = build();
        let mut subject = build();
        subject.attach_spool_io(Box::new(MemIo::new()), "spool", SpoolConfig::default()).unwrap();

        // Identical mixed traffic on both; the subject logs as it goes.
        let a = "a".to_string();
        let b = "b".to_string();
        for s in [&mut reference, &mut subject] {
            for t in 1..60u64 {
                let v = 100.0 + (t as f64).sin() * 40.0;
                s.write(&a, v, t * 100).unwrap();
                s.write(&b, 300.0 - v, t * 100).unwrap();
                if t % 5 == 0 {
                    s.read(&a, Constraint::Absolute(2.0), t * 100).unwrap();
                }
                if t % 7 == 0 {
                    s.aggregate(
                        AggregateKind::Sum,
                        &[a.clone(), b.clone()],
                        Constraint::Absolute(10.0),
                        t * 100,
                    )
                    .unwrap();
                }
                if t == 30 {
                    s.insert("late".to_string(), v, t * 100).unwrap();
                }
                if t == 40 {
                    s.widen_cached(&b, 500.0, t * 100).unwrap();
                }
            }
        }

        // Crash: drop the live store, keeping only what was made durable
        // (FsyncPolicy::Always ⇒ every applied mutation).
        let mut io = subject.detach_spool().unwrap();
        io.as_any_mut().downcast_mut::<MemIo>().unwrap().crash(0);
        let mut recovered =
            PrecisionStore::<String>::recover_with_io(io, "spool", SpoolConfig::default()).unwrap();
        assert!(recovered.has_spool());

        for k in [&a, &b, &"late".to_string()] {
            assert_eq!(reference.value(k), recovered.value(k), "{k}");
            assert_eq!(reference.internal_width(k), recovered.internal_width(k), "{k}");
            assert_eq!(
                reference.cached_interval(k, 6_000),
                recovered.cached_interval(k, 6_000),
                "{k}"
            );
            assert_eq!(reference.metrics().for_key(k), recovered.metrics().for_key(k), "{k}");
        }

        // And it keeps serving — and logging — identically afterwards.
        for s in [&mut reference, &mut recovered] {
            s.write(&a, 180.0, 7_000).unwrap();
            s.read(&a, Constraint::Absolute(1.0), 8_000).unwrap();
        }
        assert_eq!(reference.internal_width(&a), recovered.internal_width(&a));
        assert_eq!(reference.cached_interval(&a, 8_000), recovered.cached_interval(&a, 8_000));
    }

    #[test]
    fn deterministic_given_rng_stream() {
        let run = |seed: u64| {
            let mut s: PrecisionStore<u32> = StoreBuilder::new()
                .rng(Rng::seed_from_u64(seed))
                .initial_width(InitialWidth::Fixed(8.0))
                .cost(CostModel::two_phase_locking())
                .source(0, 0.0)
                .build()
                .unwrap();
            for t in 1..200u64 {
                s.write(&0, (t as f64).sin() * 20.0, t * 1_000).unwrap();
                if t % 3 == 0 {
                    s.read(&0, Constraint::Absolute(5.0), t * 1_000).unwrap();
                }
            }
            (s.metrics().vr_count(), s.metrics().qr_count(), s.internal_width(&0).unwrap())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
