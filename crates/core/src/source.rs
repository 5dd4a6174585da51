//! Source-side protocol object.
//!
//! A [`Source`] hosts one exact numeric value, the one approximation a
//! cache holds of it, and the precision policy that governs that
//! approximation (paper, Section 1.1). On every value change the source
//! checks `Valid(A, V')` and emits a value-initiated [`Refresh`] when the
//! approximation became invalid. On a remote read it serves the exact value
//! plus a fresh approximation (query-initiated refresh).

use crate::error::ProtocolError;
use crate::policy::{ApproxSpec, Escape, PrecisionPolicy};
use crate::rng::Rng;
use crate::{Key, TimeMs};

/// A refresh message from a source to a cache: a new approximation for
/// `key`, plus the internal ("original") width the cache uses for its
/// eviction ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct Refresh {
    /// The data value being refreshed.
    pub key: Key,
    /// The new approximation.
    pub spec: ApproxSpec,
    /// The policy's internal width at refresh time (eviction ordering key;
    /// the paper's eviction decisions are "based on original widths, not on
    /// 0 or ∞ widths due to thresholds").
    pub internal_width: f64,
}

/// Response to a query-initiated refresh: the exact value plus the new
/// approximation for subsequent queries.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactResponse {
    /// The exact value at the source at read time.
    pub value: f64,
    /// Refresh installing the replacement approximation.
    pub refresh: Refresh,
}

/// A data source hosting one exact value (paper, Section 4.1: "each source
/// holds one exact numeric value") and the one approximation a cache holds
/// of it, with the precision policy that sets that approximation's width.
#[derive(Debug)]
pub struct Source {
    key: Key,
    value: f64,
    policy: Box<dyn PrecisionPolicy>,
    spec: ApproxSpec,
}

impl Source {
    /// Create a source governed by `policy`; returns it with the initial
    /// refresh message to install at the cache. The initial value must be
    /// finite.
    pub fn new(
        key: Key,
        initial_value: f64,
        policy: Box<dyn PrecisionPolicy>,
        now: TimeMs,
    ) -> Result<(Self, Refresh), ProtocolError> {
        if !initial_value.is_finite() {
            return Err(ProtocolError::NonFiniteValue(initial_value));
        }
        let spec = policy.make_spec(initial_value, now);
        let source = Source { key, value: initial_value, policy, spec };
        let refresh = source.refresh();
        Ok((source, refresh))
    }

    /// Rebuild a source from an *existing* approximation and an
    /// already-restored policy, without emitting a refresh.
    ///
    /// [`new`] recenters a fresh spec on the current value — correct for a
    /// cold start, wrong for migration, where the spec in force at the
    /// source shard must survive the move bit-for-bit.
    ///
    /// [`new`]: Source::new
    pub fn from_snapshot(
        key: Key,
        value: f64,
        policy: Box<dyn PrecisionPolicy>,
        spec: ApproxSpec,
    ) -> Result<Self, ProtocolError> {
        if !value.is_finite() {
            return Err(ProtocolError::NonFiniteValue(value));
        }
        Ok(Source { key, value, policy, spec })
    }

    /// The key this source serves.
    pub fn key(&self) -> Key {
        self.key
    }

    /// Current exact value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The approximation currently in force.
    pub fn spec(&self) -> ApproxSpec {
        self.spec
    }

    /// The policy's internal width.
    pub fn internal_width(&self) -> f64 {
        self.policy.internal_width()
    }

    /// The policy's adaptation-state words (see
    /// [`PrecisionPolicy::export_state`]). Used by shard migration to move
    /// converged widths with the key.
    pub fn policy_state(&self) -> Vec<f64> {
        self.policy.export_state()
    }

    /// Relabel this source. Shard stores identify sources by dense internal
    /// ids, which change when a key moves between stores; the protocol state
    /// is otherwise untouched.
    pub fn rekey(&mut self, key: Key) {
        self.key = key;
    }

    /// The refresh message installing the approximation in force.
    fn refresh(&self) -> Refresh {
        Refresh { key: self.key, spec: self.spec, internal_width: self.policy.internal_width() }
    }

    /// Install a new exact value and run the validity test for the
    /// approximation (paper, Section 1.1). Returns the value-initiated
    /// refresh when the approximation became invalid.
    pub fn apply_update(
        &mut self,
        new_value: f64,
        now: TimeMs,
        rng: &mut Rng,
    ) -> Result<Option<Refresh>, ProtocolError> {
        if !new_value.is_finite() {
            return Err(ProtocolError::NonFiniteValue(new_value));
        }
        self.value = new_value;
        let interval = self.spec.interval_at(now);
        if interval.contains(new_value) {
            return Ok(None);
        }
        let escape = if new_value > interval.hi() { Escape::Above } else { Escape::Below };
        self.policy.on_value_refresh(escape, rng);
        self.spec = self.policy.make_spec(new_value, now);
        Ok(Some(self.refresh()))
    }

    /// Serve a query-initiated refresh: the policy observes the "too wide"
    /// signal (shrinking with probability `min{1/θ,1}`), and the response
    /// carries the exact value plus the replacement approximation.
    pub fn serve_exact(&mut self, now: TimeMs, rng: &mut Rng) -> ExactResponse {
        self.policy.on_query_refresh(rng);
        self.spec = self.policy.make_spec(self.value, now);
        ExactResponse { value: self.value, refresh: self.refresh() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdaptiveParams, AdaptivePolicy, FixedWidthPolicy};

    fn adaptive(width: f64) -> Box<dyn PrecisionPolicy> {
        let params = AdaptiveParams::from_theta(1.0, 1.0).unwrap();
        Box::new(AdaptivePolicy::new(params, width).unwrap())
    }

    /// A θ = 1 adaptive source over `value` with starting width `width`.
    fn source(key: u32, value: f64, width: f64) -> Source {
        Source::new(Key(key), value, adaptive(width), 0).unwrap().0
    }

    #[test]
    fn rejects_non_finite_values() {
        assert!(Source::new(Key(0), f64::NAN, adaptive(1.0), 0).is_err());
        assert!(Source::new(Key(0), f64::INFINITY, adaptive(1.0), 0).is_err());
        let spec = ApproxSpec::constant_centered(0.0, 1.0);
        assert!(Source::from_snapshot(Key(0), f64::NAN, adaptive(1.0), spec).is_err());
        let mut s = source(0, 1.0, 1.0);
        let mut rng = Rng::seed_from_u64(0);
        assert!(s.apply_update(f64::NAN, 0, &mut rng).is_err());
    }

    #[test]
    fn new_installs_centered_interval() {
        let (s, refresh) = Source::new(Key(3), 100.0, adaptive(10.0), 0).unwrap();
        assert_eq!(refresh.key, Key(3));
        assert_eq!(refresh.internal_width, 10.0);
        assert_eq!(refresh.spec, s.spec());
        let iv = refresh.spec.interval_at(0);
        assert_eq!((iv.lo(), iv.hi()), (95.0, 105.0));
    }

    #[test]
    fn update_within_interval_is_silent() {
        let mut s = source(0, 100.0, 10.0);
        let mut rng = Rng::seed_from_u64(0);
        let refresh = s.apply_update(104.0, 1_000, &mut rng).unwrap();
        assert!(refresh.is_none());
        assert_eq!(s.value(), 104.0);
    }

    #[test]
    fn escape_above_triggers_vr_and_growth() {
        let mut s = source(0, 100.0, 10.0);
        let mut rng = Rng::seed_from_u64(0);
        // 106 > hi=105: VR; θ=1 grows width to 20, recentered on 106.
        let r = s.apply_update(106.0, 1_000, &mut rng).unwrap().expect("escaped");
        assert_eq!(r.key, Key(0));
        assert_eq!(r.internal_width, 20.0);
        assert_eq!(s.internal_width(), 20.0);
        let iv = r.spec.interval_at(1_000);
        assert_eq!((iv.lo(), iv.hi()), (96.0, 116.0));
    }

    #[test]
    fn escape_below_also_detected() {
        let mut s = source(0, 100.0, 10.0);
        let mut rng = Rng::seed_from_u64(0);
        let r = s.apply_update(80.0, 1_000, &mut rng).unwrap().expect("escaped");
        assert_eq!(r.internal_width, 20.0);
    }

    #[test]
    fn boundary_value_is_still_valid() {
        let mut s = source(0, 100.0, 10.0);
        let mut rng = Rng::seed_from_u64(0);
        // Exactly the bound: L <= V <= H holds, no refresh.
        assert!(s.apply_update(105.0, 1_000, &mut rng).unwrap().is_none());
    }

    #[test]
    fn serve_exact_shrinks_and_recenters() {
        let mut s = source(0, 100.0, 10.0);
        let mut rng = Rng::seed_from_u64(0);
        let resp = s.serve_exact(2_000, &mut rng);
        assert_eq!(resp.value, 100.0);
        assert_eq!(resp.refresh.internal_width, 5.0);
        let iv = resp.refresh.spec.interval_at(2_000);
        assert_eq!((iv.lo(), iv.hi()), (97.5, 102.5));
    }

    #[test]
    fn fixed_policy_source_round_trip() {
        let policy = Box::new(FixedWidthPolicy::new(4.0).unwrap());
        let (mut s, _) = Source::new(Key(0), 5.0, policy, 0).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let r = s.apply_update(8.0, 1_000, &mut rng).unwrap().expect("escaped");
        // Width unchanged (fixed), recentered on 8.
        let iv = r.spec.interval_at(1_000);
        assert_eq!((iv.lo(), iv.hi()), (6.0, 10.0));
    }
}
