//! Failure injection: invalid inputs and protocol misuse must surface as
//! structured errors everywhere — the library never panics on bad input.

use apcache::core::cost::CostModel;
use apcache::core::policy::AdaptiveParams;
use apcache::core::{Key, Rng};
use apcache::queries::{evaluate, AggregateKind, ItemBound, PrecisionConstraint, QueryError};
use apcache::sim::systems::{AdaptiveSystem, AdaptiveSystemConfig};
use apcache::sim::{CacheSystem, SimConfig, Stats};
use apcache::workload::query::GeneratedQuery;

#[test]
fn non_finite_updates_are_rejected_not_propagated() {
    let mut system =
        AdaptiveSystem::new(&AdaptiveSystemConfig::default(), &[1.0], Rng::seed_from_u64(0))
            .expect("builds");
    let mut stats = Stats::new();
    stats.begin_measurement();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = system.on_update(Key(0), bad, 1_000, &mut stats);
        assert!(err.is_err(), "update {bad} must error");
    }
    // No cost was charged for the rejected updates...
    assert_eq!(stats.total_cost(), 0.0);
    // ...and the system is still usable afterwards.
    assert!(system.on_update(Key(0), 2.0, 2_000, &mut stats).is_ok());
}

#[test]
fn queries_for_unknown_keys_error_cleanly() {
    let mut system =
        AdaptiveSystem::new(&AdaptiveSystemConfig::default(), &[1.0], Rng::seed_from_u64(0))
            .expect("builds");
    let mut stats = Stats::new();
    let query =
        GeneratedQuery { kind: AggregateKind::Sum, keys: vec![Key(0), Key(99)], delta: 0.0 };
    // Key 99 has no source: the planner's fetch fails and the error
    // propagates as a protocol error (not a panic, not a NaN answer).
    assert!(system.on_query(&query, 0, &mut stats).is_err());
}

#[test]
fn planner_reports_broken_fetchers() {
    let items =
        vec![ItemBound::new(Key(0), apcache::core::Interval::new(0.0, 10.0).expect("valid"))];
    for bad in [f64::NAN, f64::INFINITY] {
        let out = evaluate(AggregateKind::Sum, PrecisionConstraint::exact(), &items, |_| bad);
        assert!(matches!(out, Err(QueryError::NonFiniteFetch { .. })));
    }
}

#[test]
fn config_validation_is_exhaustive_at_the_boundaries() {
    // SimConfig.
    assert!(SimConfig::builder().duration_secs(0).build().is_err());
    assert!(SimConfig::builder().duration_secs(5).warmup_secs(5).build().is_err());
    // Costs.
    assert!(CostModel::new(f64::MIN_POSITIVE, 1.0).is_ok());
    assert!(CostModel::new(0.0, 1.0).is_err());
    // Params.
    assert!(AdaptiveParams::from_theta(f64::INFINITY, 1.0).is_err());
    assert!(AdaptiveParams::from_theta(1.0, f64::INFINITY).is_err());
    let p = AdaptiveParams::from_theta(1.0, 1.0).expect("valid");
    assert!(p.with_thresholds(f64::NAN, 1.0).is_err());
    assert!(p.with_thresholds(0.0, f64::NAN).is_err());
    // System assembly.
    assert!(
        AdaptiveSystem::new(&AdaptiveSystemConfig::default(), &[], Rng::seed_from_u64(0)).is_err()
    );
    let bad_alpha = AdaptiveSystemConfig { alpha: -1.0, ..AdaptiveSystemConfig::default() };
    assert!(AdaptiveSystem::new(&bad_alpha, &[1.0], Rng::seed_from_u64(0)).is_err());
    let bad_gamma =
        AdaptiveSystemConfig { gamma0: 5.0, gamma1: 1.0, ..AdaptiveSystemConfig::default() };
    assert!(AdaptiveSystem::new(&bad_gamma, &[1.0], Rng::seed_from_u64(0)).is_err());
    let zero_cache =
        AdaptiveSystemConfig { cache_capacity: Some(0), ..AdaptiveSystemConfig::default() };
    assert!(AdaptiveSystem::new(&zero_cache, &[1.0], Rng::seed_from_u64(0)).is_err());
}

#[test]
fn hierarchy_misuse_is_structured() {
    use apcache::hier::{FlatFanoutSystem, LeafId, MultiLevelConfig, MultiLevelSystem};
    let mut sys =
        MultiLevelSystem::new(&MultiLevelConfig::default(), &[1.0], Rng::seed_from_u64(0))
            .expect("builds");
    let mut stats = Stats::new();
    stats.begin_measurement();
    assert!(sys.read_bounded(LeafId(99), Key(0), 1.0, 0, &mut stats).is_err());
    assert!(sys.read_bounded(LeafId(0), Key(99), 1.0, 0, &mut stats).is_err());
    assert!(sys.on_update(Key(99), 1.0, 0, &mut stats).is_err());
    // A NaN or negative tolerance is rejected before any hop is charged.
    let mut flat =
        FlatFanoutSystem::new(&MultiLevelConfig::default(), &[1.0], Rng::seed_from_u64(0))
            .expect("builds");
    for delta in [f64::NAN, -1.0] {
        let before = stats.qr_count();
        assert!(sys.read_bounded(LeafId(0), Key(0), delta, 0, &mut stats).is_err(), "{delta}");
        assert!(flat.read_bounded(LeafId(0), Key(0), delta, 0, &mut stats).is_err(), "{delta}");
        assert_eq!(stats.qr_count(), before, "δ = {delta} charged a refresh");
    }
}

#[test]
fn trace_loader_rejects_malformed_files() {
    use apcache::workload::trace::{TraceError, TraceSet};
    let cases = [
        ("", "empty"),
        ("host,second,value\nx,0,1.0", "bad host"),
        ("host,second,value\n0,y,1.0", "bad second"),
        ("host,second,value\n0,0,zz", "bad value"),
        ("host,second,value\n0,0,inf", "non-finite"),
        ("host,second,value\n0,0,1.0\n1,0,1.0\n1,1,1.0", "ragged"),
    ];
    for (input, label) in cases {
        let out = TraceSet::from_csv_str(input);
        assert!(
            matches!(out, Err(TraceError::Parse { .. }) | Err(TraceError::Inconsistent(_))),
            "case {label} should fail"
        );
    }
}
