//! Property-based tests for the core data structures: interval algebra,
//! policy invariants, and cache/eviction behaviour (checked against a
//! naive model implementation).

use proptest::prelude::*;

use apcache_core::cache::{AdmitOutcome, Cache};
use apcache_core::policy::{
    AdaptiveParams, AdaptivePolicy, ApproxSpec, Escape, PrecisionPolicy, UncenteredPolicy,
};
use apcache_core::source::Refresh;
use apcache_core::{Interval, Key, Rng};

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e12..1e12f64
}

fn width() -> impl Strategy<Value = f64> {
    0.0..1e9f64
}

proptest! {
    #[test]
    fn interval_centered_contains_center(c in finite_f64(), w in width()) {
        let iv = Interval::centered(c, w).unwrap();
        prop_assert!(iv.contains(c));
        prop_assert!(iv.width() >= 0.0);
        // Width is preserved up to floating rounding.
        prop_assert!((iv.width() - w).abs() <= w.abs() * 1e-9 + 1e-6);
    }

    #[test]
    fn interval_sum_width_is_additive(
        a in finite_f64(), wa in width(),
        b in finite_f64(), wb in width(),
    ) {
        let ia = Interval::centered(a, wa).unwrap();
        let ib = Interval::centered(b, wb).unwrap();
        let s = ia.add(&ib);
        prop_assert!((s.width() - (wa + wb)).abs() <= (wa + wb) * 1e-9 + 1e-6);
        // Soundness: sum of any contained points is contained.
        prop_assert!(s.contains(a + b));
        prop_assert!(s.contains(ia.lo() + ib.lo()));
        prop_assert!(s.contains(ia.hi() + ib.hi()));
    }

    #[test]
    fn interval_hull_contains_both(
        a in finite_f64(), wa in width(),
        b in finite_f64(), wb in width(),
    ) {
        let ia = Interval::centered(a, wa).unwrap();
        let ib = Interval::centered(b, wb).unwrap();
        let h = ia.hull(&ib);
        prop_assert!(h.contains(ia.lo()) && h.contains(ia.hi()));
        prop_assert!(h.contains(ib.lo()) && h.contains(ib.hi()));
        prop_assert!(h.width() >= ia.width().max(ib.width()) - 1e-9);
    }

    #[test]
    fn interval_intersect_is_contained_in_both(
        a in finite_f64(), wa in width(),
        b in finite_f64(), wb in width(),
    ) {
        let ia = Interval::centered(a, wa).unwrap();
        let ib = Interval::centered(b, wb).unwrap();
        if let Some(i) = ia.intersect(&ib) {
            prop_assert!(ia.contains(i.lo()) && ia.contains(i.hi()));
            prop_assert!(ib.contains(i.lo()) && ib.contains(i.hi()));
        } else {
            // Disjoint: hull wider than the sum of halves guarantees a gap.
            prop_assert!(ia.hi() < ib.lo() || ib.hi() < ia.lo());
        }
    }

    #[test]
    fn max_of_bounds_the_maximum(
        a in finite_f64(), wa in width(),
        b in finite_f64(), wb in width(),
        ta in 0.0..1.0f64, tb in 0.0..1.0f64,
    ) {
        let ia = Interval::centered(a, wa).unwrap();
        let ib = Interval::centered(b, wb).unwrap();
        let m = ia.max_of(&ib);
        // Any pair of contained points has its max contained.
        let pa = ia.lo() + ta * ia.width();
        let pb = ib.lo() + tb * ib.width();
        prop_assert!(m.contains(pa.max(pb)),
            "max_of {m} missing max({pa}, {pb})");
    }

    #[test]
    fn policy_width_moves_exactly_by_step(
        w0 in 1e-3..1e6f64,
        alpha in 0.01..10.0f64,
        grow in proptest::bool::ANY,
    ) {
        // theta = 1 makes adjustments deterministic.
        let params = AdaptiveParams::from_theta(1.0, alpha).unwrap();
        let mut p = AdaptivePolicy::new(params, w0).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        if grow {
            p.on_value_refresh(Escape::Above, &mut rng);
            prop_assert!((p.internal_width() - w0 * (1.0 + alpha)).abs()
                <= w0 * (1.0 + alpha) * 1e-12);
        } else {
            p.on_query_refresh(&mut rng);
            prop_assert!((p.internal_width() - w0 / (1.0 + alpha)).abs()
                <= w0 / (1.0 + alpha) * 1e-12);
        }
    }

    #[test]
    fn policy_width_stays_positive_finite_under_any_sequence(
        seed in 0..u64::MAX,
        alpha in 0.0..10.0f64,
        theta in 0.1..10.0f64,
        ops in proptest::collection::vec(proptest::bool::ANY, 0..200),
    ) {
        let params = AdaptiveParams::from_theta(theta, alpha).unwrap();
        let mut p = AdaptivePolicy::new(params, 1.0).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        for grow in ops {
            if grow {
                p.on_value_refresh(Escape::Below, &mut rng);
            } else {
                p.on_query_refresh(&mut rng);
            }
            prop_assert!(p.internal_width() > 0.0);
            prop_assert!(p.internal_width().is_finite());
        }
    }

    #[test]
    fn thresholds_partition_effective_widths(
        w0 in 1e-3..1e6f64,
        gamma0 in 0.0..1e3f64,
        extra in 0.0..1e3f64,
    ) {
        let gamma1 = gamma0 + extra;
        let params = AdaptiveParams::from_theta(1.0, 1.0)
            .unwrap()
            .with_thresholds(gamma0, gamma1)
            .unwrap();
        let p = AdaptivePolicy::new(params, w0).unwrap();
        let eff = p.effective_width();
        if w0 < gamma0 {
            prop_assert_eq!(eff, 0.0);
        } else if w0 >= gamma1 {
            prop_assert!(eff.is_infinite());
        } else {
            prop_assert_eq!(eff, w0);
        }
    }

    #[test]
    fn uncentered_total_width_tracks_sides(
        w0 in 1e-3..1e6f64,
        ops in proptest::collection::vec(0u8..3, 0..100),
    ) {
        let params = AdaptiveParams::from_theta(1.0, 1.0).unwrap();
        let mut p = UncenteredPolicy::new(params, w0).unwrap();
        let mut rng = Rng::seed_from_u64(1);
        for op in ops {
            match op {
                0 => p.on_value_refresh(Escape::Above, &mut rng),
                1 => p.on_value_refresh(Escape::Below, &mut rng),
                _ => p.on_query_refresh(&mut rng),
            }
            prop_assert!((p.internal_width() - (p.below() + p.above())).abs() < 1e-9);
            // The spec must always contain the value it is built around.
            let spec = p.make_spec(42.0, 0);
            prop_assert!(spec.contains(42.0, 0));
        }
    }

    #[test]
    fn cache_never_exceeds_capacity_and_evicts_widest(
        capacity in 1usize..16,
        refreshes in proptest::collection::vec((0u32..32, 0.0..100.0f64), 1..200),
    ) {
        let mut cache = Cache::new(capacity).unwrap();
        // Naive model: map key -> width, evicting the (widest, largest-key)
        // entry when full.
        let mut model: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for (key, w) in refreshes {
            let refresh = Refresh {
                key: Key(key),
                spec: ApproxSpec::constant_centered(0.0, w),
                internal_width: w,
            };
            let outcome = cache.apply_refresh(refresh);
            // Model transition.
            if model.contains_key(&key) {
                model.insert(key, w);
                prop_assert_eq!(outcome, AdmitOutcome::Updated);
            } else if model.len() < capacity {
                model.insert(key, w);
                prop_assert_eq!(outcome, AdmitOutcome::Inserted);
            } else {
                let (&vk, &vw) = model
                    .iter()
                    .max_by(|(ka, wa), (kb, wb)| {
                        wa.total_cmp(wb).then_with(|| ka.cmp(kb))
                    })
                    .unwrap();
                if w < vw {
                    model.remove(&vk);
                    model.insert(key, w);
                    prop_assert_eq!(outcome, AdmitOutcome::InsertedEvicting(Key(vk)));
                } else {
                    prop_assert_eq!(outcome, AdmitOutcome::Rejected);
                }
            }
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.len(), model.len());
            for (&k, &mw) in &model {
                let entry = cache.get(Key(k));
                prop_assert!(entry.is_some(), "model has {k} but cache lost it");
                prop_assert_eq!(entry.unwrap().internal_width, mw);
            }
        }
    }

    #[test]
    fn spec_validity_matches_interval_containment(
        center in finite_f64(),
        w in width(),
        probe in finite_f64(),
        t in 0u64..1_000_000,
    ) {
        let spec = ApproxSpec::constant_centered(center, w);
        let iv = spec.interval_at(t);
        prop_assert_eq!(spec.contains(probe, t), iv.contains(probe));
    }
}
