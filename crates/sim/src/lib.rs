//! # apcache-sim
//!
//! Discrete event simulator for approximate-caching environments,
//! reproducing the environment of the paper's performance study
//! (Section 4.1): `n` data sources each holding one numeric value, one
//! cache holding up to `κ` interval approximations, values updated every
//! second, and a bounded-aggregate query executed at the cache every `T_q`
//! seconds.
//!
//! The simulator is generic over the *caching system* being evaluated via
//! the [`system::CacheSystem`] trait. This crate ships one implementation,
//! [`systems::BackendSystem`]: any
//! [`ShardBackend`](apcache_shard::ShardBackend) under the paper's cost
//! accounting, with the paper's adaptive-interval system
//! ([`systems::AdaptiveSystem`]) and its sharded deployment
//! ([`systems::ShardedAdaptiveSystem`]) as the two in-process
//! instantiations. The `apcache-baselines` crate plugs in WJH97 exact
//! caching and HSW94 divergence caching through the same trait, so every
//! algorithm is measured by the same driver, the same workloads, and the
//! same cost accounting.
//!
//! The crate depends on `apcache-{core, queries, workload, store, shard}`
//! only: a deployment that needs a runtime, a socket or a reactor is
//! stood up by the caller and handed in as a backend.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod events;
pub mod simulation;
pub mod stats;
pub mod system;
pub mod systems;

pub use config::SimConfig;
pub use error::SimError;
pub use simulation::{Report, Simulation};
pub use stats::{Recorder, RecorderSample, Stats};
pub use system::{CacheSystem, QuerySummary};
