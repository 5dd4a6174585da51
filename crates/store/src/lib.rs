//! # apcache-store
//!
//! The **serving façade** of the workspace: a precision-parameterized
//! key-value store that hides the SIGMOD 2001 refresh protocol — sources,
//! interval caches, and adaptive precision policies — behind four verbs:
//!
//! * [`PrecisionStore::read`] — *"give me `key` to within ±δ"*. Answered
//!   from the cached interval when it is precise enough (free), otherwise
//!   by a **query-initiated refresh** that fetches the exact value and
//!   shrinks the interval width (`W ← W/(1+α)` with probability
//!   `min{1/θ, 1}`).
//! * [`PrecisionStore::write`] — a new exact value arrives at the source.
//!   If it escapes the cached interval, a **value-initiated refresh**
//!   re-centers the interval and grows its width (`W ← W·(1+α)` with
//!   probability `min{θ, 1}`).
//! * [`PrecisionStore::aggregate`] — bounded SUM/MAX/MIN/AVG over a key
//!   set, delegating refresh-set selection to the `apcache-queries`
//!   planner so only the cheapest-necessary keys are fetched.
//! * [`PrecisionStore::metrics`] — per-key and aggregate refresh/cost
//!   counters, the same vocabulary as the simulator's `Stats`.
//!
//! The [`codec`] module owns the byte layout of everything that leaves
//! the process — keys ([`KeyCodec`]), [`PolicySpec`], [`KeyMetrics`] and a
//! key's whole [`KeyState`]. The durable [`spool`] and the `apcache-wire`
//! frames both call it, so a state is the same bytes on disk and on the
//! wire, and those bytes only change with a snapshot- and
//! protocol-version bump.
//!
//! Keys are generic (`K: Hash + Ord + Clone`), precision policies are
//! pluggable per key through the [`PolicySpec`] constructor enum, and the
//! engine deliberately over/under-shoots the requested precision between
//! calls so that refresh costs amortize — callers state *what* precision
//! they need, never *how* to maintain it.
//!
//! ## Quick example
//!
//! ```
//! use apcache_store::{Constraint, StoreBuilder};
//!
//! let mut store = StoreBuilder::new()
//!     .source("cpu_load", 40.0)
//!     .source("mem_used", 900.0)
//!     .build()
//!     .unwrap();
//!
//! // Precise enough from cache — or refreshed exactly, transparently.
//! let result = store.read(&"cpu_load", Constraint::Absolute(5.0), 0).unwrap();
//! assert!(result.answer.width() <= 5.0);
//! assert!(result.answer.contains(40.0));
//!
//! // New measurements stream in; escapes refresh the cache automatically.
//! store.write(&"cpu_load", 55.0, 1_000).unwrap();
//! let after = store.read(&"cpu_load", Constraint::Absolute(5.0), 1_000).unwrap();
//! assert!(after.answer.contains(55.0));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod constraint;
pub mod error;
pub mod metrics;
pub mod migrate;
pub mod policy;
pub mod spool;
pub mod store;

pub use codec::KeyCodec;
pub use constraint::Constraint;
pub use error::StoreError;
pub use metrics::{KeyMetrics, StoreMetrics};
pub use migrate::KeyState;
pub use policy::{InitialWidth, PolicySpec};
// The spool vocabulary that appears in this crate's public durability
// API, re-exported so downstream layers need no direct spool dependency.
pub use apcache_spool::{FsyncPolicy, MemIo, SpoolConfig, SpoolError, SpoolIo, StdFsIo};
pub use store::{AggregateOutcome, Answer, PrecisionStore, ReadResult, StoreBuilder, WriteOutcome};
