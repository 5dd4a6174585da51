//! # apcache-hier
//!
//! Multi-level approximate caching — the future-work direction sketched in
//! Section 5 of the SIGMOD 2001 paper:
//!
//! > "We also plan to explore algorithms for setting precision in
//! > multi-level data caching environments, where each data object
//! > resides on one source and there is a hierarchy of caches. With
//! > multi-level caching, the precision of an approximation in one cache
//! > may affect the precision of derived approximations in other caches
//! > in the hierarchy."
//!
//! This crate implements a two-level hierarchy (source → mid-tier cache →
//! leaf caches) where the paper's adaptive precision algorithm runs
//! **independently per hop**:
//!
//! * the source-side policy sets the mid-tier interval width to balance
//!   the *upper-hop* refresh costs, exactly as in the single-level paper —
//!   the mid tier is an `apcache-store` [`PrecisionStore`] at those costs;
//! * the mid-tier maintains one policy per leaf, setting each leaf's
//!   interval width to balance the *lower-hop* refresh costs.
//!
//! The derived-precision constraint the paper anticipates appears here as
//! an invariant: a mid tier that only knows `V ∈ P` can guarantee a leaf
//! interval `I` only if `I ⊇ P`. Leaf intervals are therefore *wider*
//! approximations derived from the parent's, and a leaf can only be made
//! more precise than the parent by escalating the fetch to the source
//! (which refreshes both levels). The payoff of the hierarchy is upper-hop
//! *sharing*: one source→mid refresh serves every leaf, whereas a flat
//! deployment pays the full source→leaf path per leaf.
//! [`FlatFanoutSystem`] implements that flat deployment (one
//! [`PrecisionStore`] per leaf at the summed full-path costs) so the
//! benefit is measurable; the `hierarchy_multilevel` bench sweeps the leaf
//! count.
//!
//! [`PrecisionStore`]: apcache_store::PrecisionStore

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod flat;
pub mod system;

pub use flat::FlatFanoutSystem;
pub use system::{LeafId, MultiLevelConfig, MultiLevelSystem};
