//! # apcache-core
//!
//! Core implementation of **"Adaptive Precision Setting for Cached
//! Approximate Values"** (Olston, Loo & Widom, ACM SIGMOD 2001).
//!
//! A *source* holds an exact numeric value `V`; a *cache* holds an interval
//! approximation `[L, H]` that is valid while `L <= V <= H`. Keeping the
//! interval narrow makes it useful to queries but causes frequent
//! *value-initiated refreshes* (the value escapes the interval); keeping it
//! wide avoids those but causes *query-initiated refreshes* (queries need
//! more precision than the interval offers and fetch the exact value).
//!
//! The paper's algorithm adjusts the interval width `W` multiplicatively on
//! every refresh so that the two refresh rates balance at the cost-optimal
//! width, without measuring the workload:
//!
//! * cost factor `θ = 2·C_vr / C_qr`
//! * on a value-initiated refresh, with probability `min{θ, 1}`:
//!   `W ← W·(1 + α)`
//! * on a query-initiated refresh, with probability `min{1/θ, 1}`:
//!   `W ← W/(1 + α)`
//! * widths below the lower threshold `γ0` snap to `0` (exact caching);
//!   widths at or above the upper threshold `γ1` snap to `∞` (no caching).
//!   The *internal* width keeps adapting underneath.
//!
//! This crate provides:
//!
//! * [`interval::Interval`] — interval arithmetic with zero and infinite
//!   widths;
//! * [`cost::CostModel`] — refresh costs and the derived cost factors;
//! * [`policy`] — the adaptive policy plus every variant evaluated in the
//!   paper (fixed width, uncentered, time-varying, refresh-history);
//! * [`source::Source`] / [`cache::Cache`] — the refresh protocol objects:
//!   one source per value, holding the one approximation its cache sees
//!   and the policy that sets it;
//! * [`model`] — the closed-form refresh-probability model of Section 3 /
//!   Appendix A (used to regenerate Figure 2 and to cross-check the
//!   simulator);
//! * [`rng`] — a small, dependency-free, deterministic random number
//!   generator so simulation runs are bit-for-bit reproducible.
//!
//! ## Quick example
//!
//! ```
//! use apcache_core::cost::CostModel;
//! use apcache_core::policy::{AdaptiveParams, AdaptivePolicy, PrecisionPolicy, Escape};
//! use apcache_core::rng::Rng;
//!
//! let cost = CostModel::new(1.0, 2.0).unwrap();       // C_vr = 1, C_qr = 2
//! let params = AdaptiveParams::new(&cost, 1.0).unwrap(); // α = 1 (doubling)
//! let mut policy = AdaptivePolicy::new(params, 8.0).unwrap();
//! let mut rng = Rng::seed_from_u64(42);
//!
//! // A value-initiated refresh signals "too narrow": the width grows.
//! policy.on_value_refresh(Escape::Above, &mut rng);
//! assert_eq!(policy.internal_width(), 16.0);
//!
//! // A query-initiated refresh signals "too wide": the width shrinks.
//! policy.on_query_refresh(&mut rng);
//! assert_eq!(policy.internal_width(), 8.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod cost;
pub mod error;
pub mod interval;
pub mod model;
pub mod policy;
pub mod rng;
pub mod source;

pub use cache::{AdmitOutcome, Cache, CacheEntry};
pub use cost::CostModel;
pub use error::{CoreError, ParamError};
pub use interval::Interval;
pub use policy::{AdaptiveParams, AdaptivePolicy, Escape, PrecisionPolicy};
pub use rng::Rng;
pub use source::{ExactResponse, Refresh, Source};

/// Identifier of a source data value (one exact value per source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub u32);

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Simulation / protocol time in integer milliseconds.
///
/// The paper's time unit is one second; we use milliseconds so sub-second
/// query periods (`T_q = 0.5 s`) stay on an exact integer grid.
pub type TimeMs = u64;

/// Milliseconds per simulated second.
pub const MS_PER_SEC: TimeMs = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display() {
        assert_eq!(Key(7).to_string(), "k7");
    }

    #[test]
    fn key_ordering_is_numeric() {
        assert!(Key(2) < Key(10));
        let mut v = vec![Key(3), Key(1), Key(2)];
        v.sort();
        assert_eq!(v, vec![Key(1), Key(2), Key(3)]);
    }
}
