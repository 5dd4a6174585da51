//! The two-level adaptive caching system.

use apcache_core::cost::CostModel;
use apcache_core::policy::{AdaptiveParams, AdaptivePolicy, Escape, PrecisionPolicy};
use apcache_core::{Interval, Key, Rng, TimeMs};
use apcache_sim::error::SimError;
use apcache_sim::stats::Stats;
use apcache_sim::system::{CacheSystem, QuerySummary};
use apcache_store::{Constraint, InitialWidth, PrecisionStore, StoreBuilder};
use apcache_workload::query::GeneratedQuery;

/// Identifier of a leaf cache in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafId(pub u32);

/// Configuration of the two-level system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiLevelConfig {
    /// Refresh costs on the source ↔ mid-tier hop (e.g. a WAN).
    pub upper_cost: CostModel,
    /// Refresh costs on the mid-tier ↔ leaf hop (e.g. a LAN; typically
    /// cheaper).
    pub lower_cost: CostModel,
    /// Adaptivity parameter α used at both levels.
    pub alpha: f64,
    /// Lower snapping threshold γ0 (both levels).
    pub gamma0: f64,
    /// Upper snapping threshold γ1 (both levels).
    pub gamma1: f64,
    /// Number of leaf caches.
    pub n_leaves: usize,
    /// Starting interval width at both levels.
    pub initial_width: f64,
}

impl Default for MultiLevelConfig {
    fn default() -> Self {
        MultiLevelConfig {
            upper_cost: CostModel::new(1.0, 2.0).expect("static costs valid"),
            lower_cost: CostModel::new(0.25, 0.5).expect("static costs valid"),
            alpha: 1.0,
            gamma0: 0.0,
            gamma1: f64::INFINITY,
            n_leaves: 4,
            initial_width: 4.0,
        }
    }
}

impl MultiLevelConfig {
    fn validate(&self) -> Result<(), SimError> {
        if self.n_leaves == 0 {
            return Err(SimError::Config("hierarchy needs at least one leaf".into()));
        }
        if !(self.initial_width.is_finite() && self.initial_width > 0.0) {
            return Err(SimError::Config(format!(
                "initial width must be positive and finite, got {}",
                self.initial_width
            )));
        }
        Ok(())
    }

    /// A store over `initial_values` (keyed `Key(0)`, `Key(1)`, …) that runs
    /// the refresh protocol at `cost` with this configuration's α, γ and
    /// starting width, drawing its coin flips from `rng`.
    pub(crate) fn store(
        &self,
        cost: CostModel,
        initial_values: &[f64],
        rng: Rng,
    ) -> Result<PrecisionStore<Key>, SimError> {
        let builder = StoreBuilder::new()
            .cost(cost)
            .alpha(self.alpha)
            .thresholds(self.gamma0, self.gamma1)
            .initial_width(InitialWidth::Fixed(self.initial_width))
            .rng(rng);
        let builder = initial_values
            .iter()
            .enumerate()
            .fold(builder, |b, (i, &v)| b.source(Key(i as u32), v));
        Ok(builder.build()?)
    }
}

/// Mid-tier state for one (key, leaf) pair: the policy governing the
/// leaf's interval width and the interval currently installed at the leaf.
#[derive(Debug)]
struct LeafApprox {
    policy: AdaptivePolicy,
    interval: Interval,
}

/// Mid-tier state for one key.
#[derive(Debug)]
struct MidEntry {
    leaves: Vec<LeafApprox>,
}

/// The two-level system: sources → mid-tier cache → leaf caches.
///
/// The source → mid-tier hop is a [`PrecisionStore`] running the paper's
/// refresh protocol at the upper-hop costs; the mid tier's per-leaf
/// policies are this type's own.
///
/// Invariant (checked by `debug_assert` and tests): every leaf interval
/// contains the mid-tier interval for the same key, and therefore the
/// exact value.
#[derive(Debug)]
pub struct MultiLevelSystem {
    cfg: MultiLevelConfig,
    mid: PrecisionStore<Key>,
    entries: Vec<MidEntry>,
    rng: Rng,
}

impl MultiLevelSystem {
    /// Assemble the hierarchy for the given initial values.
    ///
    /// Seeding: the first `rng.fork()` is this system's own stream (leaf
    /// choices and the leaf policies' coin flips); the second seeds the
    /// mid-tier store, whose policies draw from it.
    pub fn new(
        cfg: &MultiLevelConfig,
        initial_values: &[f64],
        mut rng: Rng,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if initial_values.is_empty() {
            return Err(SimError::Config("at least one source required".into()));
        }
        let lower_params = AdaptiveParams::new(&cfg.lower_cost, cfg.alpha)?
            .with_thresholds(cfg.gamma0, cfg.gamma1)?;
        let own = rng.fork();
        let mid = cfg.store(cfg.upper_cost, initial_values, rng.fork())?;
        let mut entries = Vec::with_capacity(initial_values.len());
        for i in 0..initial_values.len() {
            let parent_interval =
                mid.cached_interval(&Key(i as u32), 0).unwrap_or_else(Interval::unbounded);
            // Each leaf starts with the parent interval widened to its own
            // policy width (leaf intervals must contain the parent's).
            let mut leaves = Vec::with_capacity(cfg.n_leaves);
            for _ in 0..cfg.n_leaves {
                let policy = AdaptivePolicy::new(lower_params, cfg.initial_width * 2.0)?;
                let interval = derive_leaf_interval(&policy, parent_interval);
                leaves.push(LeafApprox { policy, interval });
            }
            entries.push(MidEntry { leaves });
        }
        Ok(MultiLevelSystem { cfg: *cfg, mid, entries, rng: own })
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.cfg.n_leaves
    }

    /// The mid-tier interval for `key`.
    pub fn mid_interval(&self, key: Key, now: TimeMs) -> Option<Interval> {
        self.mid.cached_interval(&key, now)
    }

    /// The interval leaf `leaf` holds for `key`.
    pub fn leaf_interval(&self, leaf: LeafId, key: Key) -> Option<Interval> {
        Some(self.entries.get(key.0 as usize)?.leaves.get(leaf.0 as usize)?.interval)
    }

    /// Serve a bounded read of `key` at `leaf` with tolerance `delta`:
    /// returns an interval of width ≤ `delta` containing the exact value,
    /// charging only the hops that were actually traversed.
    pub fn read_bounded(
        &mut self,
        leaf: LeafId,
        key: Key,
        delta: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<Interval, SimError> {
        Constraint::Absolute(delta).validate()?;
        let ki = key.0 as usize;
        let li = leaf.0 as usize;
        {
            let entry =
                self.entries.get(ki).ok_or_else(|| SimError::Config(format!("unknown {key}")))?;
            let approx = entry
                .leaves
                .get(li)
                .ok_or_else(|| SimError::Config(format!("unknown leaf {}", leaf.0)))?;
            // Leaf-local hit: free.
            if approx.interval.width() <= delta {
                return Ok(approx.interval);
            }
        }
        // Lower-hop query-initiated refresh: ask the mid tier.
        stats.record_qr(self.cfg.lower_cost.c_qr());
        let parent = self.mid_interval(key, now).unwrap_or_else(Interval::unbounded);
        if parent.width() <= delta {
            // The mid tier can serve the request from its own interval.
            let entry = &mut self.entries[ki];
            let approx = &mut entry.leaves[li];
            approx.policy.on_query_refresh(&mut self.rng);
            approx.interval = derive_leaf_interval(&approx.policy, parent);
            debug_assert!(leaf_contains_parent(approx.interval, parent));
            return Ok(parent);
        }
        // Escalate: upper-hop query-initiated refresh to the source.
        stats.record_qr(self.cfg.upper_cost.c_qr());
        let exact = self.mid.read(&key, Constraint::Exact, now)?.answer.interval();
        let new_parent = self.mid_interval(key, now).unwrap_or_else(Interval::unbounded);
        {
            let approx = &mut self.entries[ki].leaves[li];
            approx.policy.on_query_refresh(&mut self.rng);
            // The leaf learns the exact value; its new interval is centered
            // on it and widened to cover the new parent interval.
            let centered = Interval::centered(exact.lo(), approx.policy.effective_width())
                .unwrap_or_else(|_| Interval::unbounded());
            approx.interval = centered.hull(&new_parent);
        }
        // The refreshed parent interval is recentered on the exact value
        // and can poke outside sibling leaves' intervals; push corrective
        // refreshes so every leaf keeps covering the parent (the
        // containment invariant that guarantees leaf validity).
        self.sync_leaves(ki, Some(li), new_parent, stats);
        Ok(exact)
    }

    /// Refresh every leaf of `ki` (except `skip`) whose interval no longer
    /// covers `parent`, charging one lower-hop value-initiated refresh
    /// each.
    fn sync_leaves(&mut self, ki: usize, skip: Option<usize>, parent: Interval, stats: &mut Stats) {
        let rng = &mut self.rng;
        for (l, approx) in self.entries[ki].leaves.iter_mut().enumerate() {
            if Some(l) == skip || leaf_contains_parent(approx.interval, parent) {
                continue;
            }
            stats.record_vr(self.cfg.lower_cost.c_vr());
            let escape =
                if parent.hi() > approx.interval.hi() { Escape::Above } else { Escape::Below };
            approx.policy.on_value_refresh(escape, rng);
            approx.interval = derive_leaf_interval(&approx.policy, parent);
            debug_assert!(leaf_contains_parent(approx.interval, parent));
        }
    }

    /// Propagate a source update through the hierarchy.
    fn propagate_update(
        &mut self,
        key: Key,
        value: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        if !self.mid.write(&key, value, now)?.escaped() {
            // Still valid at the mid tier ⇒ still valid at every leaf
            // (leaf intervals contain the parent interval).
            return Ok(());
        }
        // Upper-hop value-initiated refresh.
        stats.record_vr(self.cfg.upper_cost.c_vr());
        let new_parent = self.mid_interval(key, now).unwrap_or_else(Interval::unbounded);
        // Lower hop: only leaves whose interval no longer covers the new
        // parent interval must be refreshed — the sharing that makes the
        // hierarchy pay off.
        self.sync_leaves(key.0 as usize, None, new_parent, stats);
        Ok(())
    }
}

/// A leaf interval derived from the parent's: the policy's effective width
/// centered where the parent is, widened (hull) so it always covers the
/// parent interval — the containment that makes it a valid approximation.
fn derive_leaf_interval(policy: &AdaptivePolicy, parent: Interval) -> Interval {
    let width = policy.effective_width();
    let centered = match parent.center() {
        Some(c) => Interval::centered(c, width).unwrap_or_else(|_| Interval::unbounded()),
        None => Interval::unbounded(),
    };
    centered.hull(&parent)
}

/// Whether a leaf interval covers the parent interval (and therefore is
/// guaranteed to contain the exact value).
fn leaf_contains_parent(leaf: Interval, parent: Interval) -> bool {
    leaf.lo() <= parent.lo() && parent.hi() <= leaf.hi()
}

impl CacheSystem for MultiLevelSystem {
    fn on_update(
        &mut self,
        key: Key,
        value: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        self.propagate_update(key, value, now, stats)
    }

    fn on_query(
        &mut self,
        query: &GeneratedQuery,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<QuerySummary, SimError> {
        // Each generated query is served at one leaf (rotating
        // deterministically via the RNG), reading every key it names with
        // the query's tolerance.
        let leaf = LeafId(self.rng.below(self.cfg.n_leaves as u64) as u32);
        let before = stats.qr_count();
        let mut answer: Option<Interval> = None;
        for &key in &query.keys {
            let iv = self.read_bounded(leaf, key, query.delta, now, stats)?;
            answer = Some(match answer {
                None => iv,
                Some(a) => a.add(&iv),
            });
        }
        Ok(QuerySummary { answer, refreshes: (stats.qr_count() - before) as usize })
    }

    fn interval_of(&self, key: Key, now: TimeMs) -> Option<Interval> {
        self.mid_interval(key, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measuring() -> Stats {
        let mut s = Stats::new();
        s.begin_measurement();
        s
    }

    fn system(n_leaves: usize) -> MultiLevelSystem {
        let cfg = MultiLevelConfig { n_leaves, ..MultiLevelConfig::default() };
        MultiLevelSystem::new(&cfg, &[100.0, 200.0], Rng::seed_from_u64(1)).expect("builds")
    }

    #[test]
    fn validation() {
        let cfg = MultiLevelConfig { n_leaves: 0, ..MultiLevelConfig::default() };
        assert!(MultiLevelSystem::new(&cfg, &[1.0], Rng::seed_from_u64(0)).is_err());
        let cfg = MultiLevelConfig { initial_width: 0.0, ..MultiLevelConfig::default() };
        assert!(MultiLevelSystem::new(&cfg, &[1.0], Rng::seed_from_u64(0)).is_err());
        assert!(MultiLevelSystem::new(&MultiLevelConfig::default(), &[], Rng::seed_from_u64(0))
            .is_err());
    }

    #[test]
    fn leaf_intervals_contain_parent_at_start() {
        let sys = system(3);
        for key in [Key(0), Key(1)] {
            let parent = sys.mid_interval(key, 0).unwrap();
            for l in 0..3u32 {
                let leaf = sys.leaf_interval(LeafId(l), key).unwrap();
                assert!(leaf_contains_parent(leaf, parent), "leaf {l} {leaf} vs {parent}");
            }
        }
    }

    #[test]
    fn leaf_hit_is_free() {
        let mut sys = system(2);
        let mut stats = measuring();
        let leaf_width = sys.leaf_interval(LeafId(0), Key(0)).unwrap().width();
        let iv = sys.read_bounded(LeafId(0), Key(0), leaf_width + 1.0, 0, &mut stats).unwrap();
        assert_eq!(stats.qr_count(), 0);
        assert!(iv.contains(100.0));
    }

    #[test]
    fn mid_tier_serves_moderate_precision() {
        let mut sys = system(2);
        let mut stats = measuring();
        let parent_width = sys.mid_interval(Key(0), 0).unwrap().width();
        let leaf_width = sys.leaf_interval(LeafId(0), Key(0)).unwrap().width();
        assert!(parent_width < leaf_width);
        // Tolerance between the two widths: one lower-hop QR only.
        let delta = (parent_width + leaf_width) / 2.0;
        let iv = sys.read_bounded(LeafId(0), Key(0), delta, 0, &mut stats).unwrap();
        assert_eq!(stats.qr_count(), 1);
        assert!((stats.total_cost() - 0.5).abs() < 1e-12, "only the lower hop is charged");
        assert!(iv.width() <= delta);
        assert!(iv.contains(100.0));
    }

    #[test]
    fn exact_reads_escalate_to_the_source() {
        let mut sys = system(2);
        let mut stats = measuring();
        let iv = sys.read_bounded(LeafId(0), Key(0), 0.0, 0, &mut stats).unwrap();
        assert!(iv.is_exact());
        assert_eq!(iv.lo(), 100.0);
        // Both hops charged: 0.5 + 2.0.
        assert_eq!(stats.qr_count(), 2);
        assert!((stats.total_cost() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn updates_inside_parent_interval_cost_nothing() {
        let mut sys = system(4);
        let mut stats = measuring();
        let parent = sys.mid_interval(Key(0), 0).unwrap();
        let inside = parent.center().unwrap() + parent.width() / 4.0;
        sys.on_update(Key(0), inside, 1_000, &mut stats).unwrap();
        assert_eq!(stats.vr_count(), 0);
        assert_eq!(stats.total_cost(), 0.0);
    }

    #[test]
    fn escaping_updates_share_the_upper_hop() {
        let mut sys = system(4);
        let mut stats = measuring();
        // Push the value far outside everything.
        sys.on_update(Key(0), 1_000.0, 1_000, &mut stats).unwrap();
        // One upper-hop VR (cost 1) + at most 4 lower-hop VRs (0.25 each):
        // the upper hop is paid once, not once per leaf.
        assert!(stats.vr_count() >= 1);
        let upper_cost = 1.0;
        let max_lower = 4.0 * 0.25;
        assert!(stats.total_cost() <= upper_cost + max_lower + 1e-12);
        // Every leaf still holds a valid interval.
        let parent = sys.mid_interval(Key(0), 1_000).unwrap();
        for l in 0..4u32 {
            let leaf = sys.leaf_interval(LeafId(l), Key(0)).unwrap();
            assert!(leaf_contains_parent(leaf, parent));
            assert!(leaf.contains(1_000.0));
        }
    }

    #[test]
    fn containment_invariant_holds_under_churn() {
        assert_containment_under_churn(system(3), 500);
    }

    #[test]
    fn containment_invariant_holds_off_theta_one() {
        // Upper hop θ = 2·1/0.5 = 4, lower hop θ = 2·0.25/1 = 0.5: the mid
        // tier shrinks with probability 1/4 (the store's coin) and each
        // leaf grows with probability 1/2 (this system's coin).
        let cfg = MultiLevelConfig {
            upper_cost: CostModel::new(1.0, 0.5).unwrap(),
            lower_cost: CostModel::new(0.25, 1.0).unwrap(),
            n_leaves: 3,
            ..MultiLevelConfig::default()
        };
        let sys = MultiLevelSystem::new(&cfg, &[100.0, 200.0], Rng::seed_from_u64(1)).unwrap();
        assert_containment_under_churn(sys, 2_000);
    }

    /// Random-walk `Key(0)` for `steps` seconds with a bounded read every
    /// third step: every answer holds the value within its tolerance, and
    /// every leaf interval covers the mid-tier interval throughout.
    fn assert_containment_under_churn(mut sys: MultiLevelSystem, steps: u64) {
        let n_leaves = sys.n_leaves() as u64;
        let mut stats = measuring();
        let mut rng = Rng::seed_from_u64(9);
        let mut value = 100.0;
        for t in 1..=steps {
            value += rng.uniform(-5.0, 5.0);
            sys.on_update(Key(0), value, t * 1_000, &mut stats).unwrap();
            if t % 3 == 0 {
                let delta = rng.uniform(0.0, 50.0);
                let leaf = LeafId(rng.below(n_leaves) as u32);
                let iv = sys.read_bounded(leaf, Key(0), delta, t * 1_000, &mut stats).unwrap();
                assert!(iv.contains(value), "t={t}: {iv} misses {value}");
                assert!(iv.width() <= delta + 1e-9);
            }
            let parent = sys.mid_interval(Key(0), t * 1_000).unwrap();
            assert!(parent.contains(value));
            for l in 0..n_leaves as u32 {
                let leaf = sys.leaf_interval(LeafId(l), Key(0)).unwrap();
                assert!(
                    leaf_contains_parent(leaf, parent),
                    "t={t} leaf {l}: {leaf} does not cover {parent}"
                );
            }
        }
        assert!(stats.vr_count() > 0);
        assert!(stats.qr_count() > 0);
    }

    #[test]
    fn unknown_keys_and_leaves_error() {
        let mut sys = system(2);
        let mut stats = measuring();
        assert!(sys.read_bounded(LeafId(0), Key(9), 1.0, 0, &mut stats).is_err());
        assert!(sys.read_bounded(LeafId(9), Key(0), 1.0, 0, &mut stats).is_err());
    }
}
