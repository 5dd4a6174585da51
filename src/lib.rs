//! # apcache — adaptive precision setting for cached approximate values
//!
//! Umbrella crate for a full reproduction of **Olston, Loo & Widom,
//! "Adaptive Precision Setting for Cached Approximate Values"
//! (ACM SIGMOD 2001)**. It re-exports every sub-crate of the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`store`] | `apcache-store` | **the serving façade**: `PrecisionStore` — precision-parameterized reads, writes, bounded aggregates, and metrics over generic keys |
//! | [`shard`] | `apcache-shard` | **the scale-out layer**: `ShardedStore` — consistent-hash routing over `PrecisionStore` shards, same four verbs, merged metrics |
//! | [`runtime`] | `apcache-runtime` | **the concurrent serving layer**: `Runtime` — one actor thread per shard, bounded mailboxes with backpressure, scatter/gather aggregates |
//! | [`wire`] | `apcache-wire` | **the cross-process layer**: a compact binary frame protocol with loopback/TCP transports, the pipelined `RemoteStoreClient`, and the call-reply reference `StoreServer` |
//! | [`reactor`] | `apcache-reactor` | **the pipelined door**: `serve_reactor` — a poll/epoll readiness loop driving 10k+ pipelined connections from a fixed worker pool in front of a `Runtime`, frame-coalescing push fan-out |
//! | [`push`] | `apcache-push` | **the streaming layer's primitives**: per-key subscriber registry, hierarchical timer wheel, TTL leases |
//! | [`core`] | `apcache-core` | interval algebra, the adaptive precision policy and its variants, source/cache protocol, analytic model, deterministic RNG |
//! | [`queries`] | `apcache-queries` | bounded aggregate queries (SUM/MAX/MIN/AVG) with refresh-set selection |
//! | [`workload`] | `apcache-workload` | random walks, synthetic network traffic traces, query workloads |
//! | [`sim`] | `apcache-sim` | discrete event simulator and cost statistics |
//! | [`baselines`] | `apcache-baselines` | WJH97 adaptive exact caching, HSW94 divergence caching, stale-value specialization |
//! | [`hier`] | `apcache-hier` | multi-level cache hierarchies (the paper's Section 5 future work): a `PrecisionStore` mid tier with derived per-leaf intervals, and a flat fan-out of one store per leaf |
//!
//! Applications talk to [`store::PrecisionStore`]; the simulator, the
//! baselines, the hierarchy, and the experiment harnesses drive the same
//! façade so there is exactly one implementation of the refresh protocol.
//!
//! ## Quickstart
//!
//! Ask for a value *to within ±δ*: the store answers from its cached
//! interval when that is precise enough (free), and otherwise refreshes
//! exactly once, adapting each key's precision to its traffic as it goes.
//!
//! ```
//! use apcache::store::{Constraint, StoreBuilder};
//!
//! // Two sensors; sources register with an exact starting value.
//! let mut store = StoreBuilder::new()
//!     .source("cpu_load", 40.0)
//!     .source("queue_depth", 1_200.0)
//!     .build()
//!     .unwrap();
//!
//! // A tolerant read is served from the cached interval at zero cost.
//! let r = store.read(&"cpu_load", Constraint::Absolute(10.0), 0).unwrap();
//! assert!(!r.refreshed);
//! assert!(r.answer.width() <= 10.0);
//! assert!(r.answer.contains(40.0));
//!
//! // A tight read triggers one query-initiated refresh: the exact value
//! // comes back and the key's interval narrows (W ← W/(1+α)).
//! let r = store.read(&"cpu_load", Constraint::Exact, 1_000).unwrap();
//! assert_eq!(r.answer.estimate(), Some(40.0));
//! assert!(r.refreshed);
//!
//! // Writes inside the interval are free; escaping writes refresh and
//! // widen (W ← W·(1+α)).
//! let w = store.write(&"queue_depth", 1_201.0, 2_000).unwrap();
//! assert!(!w.escaped());
//!
//! // Bounded aggregates fetch only the keys the planner selects.
//! use apcache::queries::AggregateKind;
//! let out = store
//!     .aggregate(AggregateKind::Sum, &["cpu_load", "queue_depth"], Constraint::Absolute(50.0), 3_000)
//!     .unwrap();
//! assert!(out.answer.width() <= 50.0);
//! assert_eq!(out.refreshed, vec!["queue_depth"]); // the widest item
//!
//! // Refresh traffic and costs are accounted per key.
//! assert_eq!(store.metrics().qr_count(), 2);
//! assert_eq!(store.metrics().for_key(&"cpu_load").unwrap().qr_count, 1);
//! ```
//!
//! To *evaluate* a configuration under synthetic load instead, assemble a
//! simulation (the paper's Section 4 environment) with
//! [`sim::systems::build_adaptive_simulation`] — it drives the same
//! `PrecisionStore` through the event loop and reports the cost rate `Ω`.
//! Any other [`shard::ShardBackend`] (a fleet, a runtime handle, a remote
//! client) goes under the same driver through
//! [`sim::systems::BackendSystem::over`].

pub use apcache_baselines as baselines;
pub use apcache_core as core;
pub use apcache_hier as hier;
pub use apcache_push as push;
pub use apcache_queries as queries;
pub use apcache_reactor as reactor;
pub use apcache_runtime as runtime;
pub use apcache_shard as shard;
pub use apcache_sim as sim;
pub use apcache_store as store;
pub use apcache_telemetry as telemetry;
pub use apcache_wire as wire;
pub use apcache_workload as workload;
