//! Concrete caching systems.
//!
//! There is one: [`BackendSystem`], any
//! [`ShardBackend`](apcache_shard::ShardBackend) under the paper's
//! Section 4.1 cost accounting, assembled into a run by
//! [`build_simulation`]. [`AdaptiveSystem`] (one `PrecisionStore`) and
//! [`ShardedAdaptiveSystem`] (a `ShardedStore` fleet) are the two
//! in-process instantiations every figure harness runs on; a runtime
//! handle or a remote client goes through
//! [`BackendSystem::over`] the same way, with the serving stack stood up
//! by the caller (see `tests/backend_simulation.rs`). The baselines crate
//! provides additional implementations of [`crate::system::CacheSystem`].

mod adaptive;
mod backend;
mod sharded;

pub use adaptive::{
    build_adaptive_simulation, AdaptiveSystem, AdaptiveSystemConfig, InitialWidth, PolicyKind,
    WorkloadSpec,
};
pub use backend::{build_simulation, BackendSystem};
pub use sharded::{build_sharded_simulation, ShardedAdaptiveSystem, ShardedSystemConfig};

/// Query workload specification (re-export of the workload crate's config:
/// period, fanout, constraint distribution, aggregate mix).
pub use apcache_workload::query::QueryConfig as QuerySpec;
