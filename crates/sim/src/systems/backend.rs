//! The one caching system the simulator ships: any [`ShardBackend`] under
//! the paper's Section 4.1 cost accounting.
//!
//! The refresh protocol lives in `apcache-store`; every deployment shape
//! (one store, a sharded fleet, a runtime handle, a remote client) spells
//! the same verbs through [`ShardBackend`]. [`BackendSystem`] is the only
//! place those verbs meet the simulator's [`Stats`]: every value-initiated
//! refresh a write reports is charged `C_vr`, every key an aggregate
//! fetched exactly is charged `C_qr`. [`build_simulation`] is likewise the
//! only place the seed contract is written down.

use apcache_core::cost::CostModel;
use apcache_core::{Interval, Key, Rng, TimeMs};
use apcache_shard::ShardBackend;
use apcache_store::Constraint;
use apcache_workload::query::{GeneratedQuery, QueryConfig, QueryGenerator};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::simulation::Simulation;
use crate::stats::Stats;
use crate::system::{CacheSystem, QuerySummary};
use crate::systems::adaptive::WorkloadSpec;

/// A [`ShardBackend`] driven by the simulator: the backend executes the
/// verbs, this type turns their refresh outcomes into cost.
#[derive(Debug)]
pub struct BackendSystem<B> {
    pub(super) backend: B,
    pub(super) cost: CostModel,
    /// How the time-series recorder looks at a cached interval without
    /// perturbing the protocol. In-process backends can peek for free;
    /// anything behind a mailbox or a socket cannot (a read is a verb).
    pub(super) peek: fn(&B, &Key, TimeMs) -> Option<Interval>,
}

impl<B> BackendSystem<B> {
    /// The simulator's accounting over `backend`, charging refreshes at
    /// `cost` (which must be the cost model the backend's stores were
    /// built with, or the simulator's Ω and the stores' own θ disagree).
    /// The recorder sees no interval trace for a system built this way.
    /// (Not `new`: the two in-process instantiations keep their
    /// `new(cfg, initial_values, rng)`, and inherent names cannot overlap.)
    pub fn over(backend: B, cost: CostModel) -> Self {
        BackendSystem { backend, cost, peek: |_, _, _| None }
    }

    /// The backend under test, for direct inspection.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Take the backend back (e.g. to shut a remote client down).
    pub fn into_backend(self) -> B {
        self.backend
    }
}

impl<B: ShardBackend<Key> + Send> CacheSystem for BackendSystem<B> {
    fn on_update(
        &mut self,
        key: Key,
        value: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        let outcome = self.backend.write(&key, value, now)?;
        for _ in 0..outcome.refreshes {
            stats.record_vr(self.cost.c_vr());
        }
        Ok(())
    }

    fn on_update_batch(
        &mut self,
        updates: &[(Key, f64)],
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        let outcome = self.backend.write_batch(updates, now)?;
        for _ in 0..outcome.refreshes {
            stats.record_vr(self.cost.c_vr());
        }
        Ok(())
    }

    fn on_query(
        &mut self,
        query: &GeneratedQuery,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<QuerySummary, SimError> {
        let outcome = self.backend.aggregate(
            query.kind,
            &query.keys,
            Constraint::Absolute(query.delta),
            now,
        )?;
        for _ in &outcome.refreshed {
            stats.record_qr(self.cost.c_qr());
        }
        Ok(QuerySummary { answer: Some(outcome.answer), refreshes: outcome.refreshed.len() })
    }

    fn interval_of(&self, key: Key, now: TimeMs) -> Option<Interval> {
        (self.peek)(&self.backend, &key, now)
    }
}

/// Assemble a simulation: workload → system → query load.
///
/// The seed contract, held here and nowhere else: the master stream is
/// seeded from `sim_cfg`, the value processes draw from it first, then
/// `make_system` receives one fork (and the stock constructors fork that
/// *once more* for the store, so a backend built outside the simulator
/// must do the same to replay a run), then the query generator receives
/// the next fork. `make_system` gets the processes' initial values, one
/// per source (`Key(0), Key(1), …`).
pub fn build_simulation<S: CacheSystem>(
    sim_cfg: &SimConfig,
    workload: WorkloadSpec,
    queries: QueryConfig,
    make_system: impl FnOnce(&[f64], Rng) -> Result<S, SimError>,
) -> Result<Simulation<S>, SimError> {
    let mut master = Rng::seed_from_u64(sim_cfg.seed());
    let processes = workload.build_processes(&mut master)?;
    let initial_values: Vec<f64> = processes.iter().map(|p| p.value()).collect();
    let system = make_system(&initial_values, master.fork())?;
    let query_gen = QueryGenerator::new(queries, initial_values.len(), master.fork())?;
    Simulation::new(*sim_cfg, system, processes, query_gen)
}
