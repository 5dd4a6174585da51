//! Shared by `pipelining_conformance` and `reactor_conformance`: one
//! deterministic trace, one fleet, the sequential in-process reference
//! both suites diff the pipelined stack against, the windowed wire
//! driver, and final-state equality.

use apcache::core::{Rng, MS_PER_SEC};
use apcache::queries::AggregateKind;
use apcache::shard::{ShardedStore, ShardedStoreBuilder};
use apcache::store::{Constraint, InitialWidth, ReadResult, WriteOutcome};
use apcache::wire::{RemoteStoreClient, Ticket, Transport};

/// What distinguishes one suite's traffic from the other's.
pub struct Shape {
    pub n_keys: u32,
    pub ticks: u64,
    pub seed: u64,
}

pub fn key(i: u32) -> String {
    format!("sensor/{i:03}")
}

/// One operation of the shared trace, pre-generated so both executions
/// replay byte-identical traffic.
#[derive(Debug, Clone)]
pub enum Op {
    Write { key: String, value: f64, now: u64 },
    Read { key: String, constraint: Constraint, now: u64 },
    Aggregate { kind: AggregateKind, keys: Vec<String>, constraint: Constraint, now: u64 },
}

/// A deterministic interleaved read/write/aggregate trace: per-key
/// random walks, rotating read constraints, periodic aggregates of all
/// four kinds (Absolute/Exact mixed into the window; Relative present
/// too, flushed at submission — see `run_windowed`).
pub fn trace(shape: &Shape, seed: u64) -> Vec<Op> {
    let n = shape.n_keys;
    let mut rng = Rng::seed_from_u64(seed);
    let mut values: Vec<f64> = (0..n).map(|i| 10.0 + 10.0 * i as f64).collect();
    let mut ops = Vec::new();
    let kinds = [AggregateKind::Sum, AggregateKind::Max, AggregateKind::Min, AggregateKind::Avg];
    for t in 1..=shape.ticks {
        let now = t * MS_PER_SEC;
        for i in 0..n {
            values[i as usize] += rng.normal_with(0.0, 4.0);
            ops.push(Op::Write { key: key(i), value: values[i as usize], now });
        }
        for _ in 0..4 {
            let i = rng.below(u64::from(n)) as u32;
            let constraint = match rng.below(3) {
                0 => Constraint::Absolute(rng.uniform(1.0, 20.0)),
                1 => Constraint::Relative(0.05),
                _ => Constraint::Exact,
            };
            ops.push(Op::Read { key: key(i), constraint, now });
        }
        if t % 5 == 0 {
            let fanout = 4 + rng.below(10) as u32;
            let keys: Vec<String> = (0..fanout).map(|j| key((j * 5 + t as u32) % n)).collect();
            let kind = kinds[(t / 5) as usize % kinds.len()];
            let constraint = match rng.below(4) {
                0 => Constraint::Absolute(rng.uniform(5.0, 100.0)),
                1 => Constraint::Relative(0.02),
                2 => Constraint::Relative(0.5),
                _ => Constraint::Exact,
            };
            ops.push(Op::Aggregate { kind, keys, constraint, now });
        }
    }
    ops
}

pub fn fleet(shape: &Shape, shards: usize) -> ShardedStore<String> {
    let mut b = ShardedStoreBuilder::new()
        .shards(shards)
        .vnodes(64)
        .alpha(1.0)
        .rng(Rng::seed_from_u64(shape.seed ^ 2))
        .initial_width(InitialWidth::Fixed(8.0));
    for i in 0..shape.n_keys {
        b = b.source(key(i), 10.0 + 10.0 * i as f64);
    }
    b.build().expect("fleet config valid")
}

/// Per-op observable results, compared across the two executions.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    Read(ReadResult),
    Write(WriteOutcome),
    Aggregate { lo_bits: u64, hi_bits: u64, refreshed: Vec<String> },
}

/// The sequential reference: every op applied in order on a local
/// fleet, no runtime, no wire.
pub fn run_sequential(
    shape: &Shape,
    shards: usize,
    ops: &[Op],
) -> (Vec<Outcome>, ShardedStore<String>) {
    let mut store = fleet(shape, shards);
    let mut outcomes = Vec::with_capacity(ops.len());
    for op in ops {
        let outcome = match op {
            Op::Write { key, value, now } => {
                Outcome::Write(store.write(key, *value, *now).expect("known key"))
            }
            Op::Read { key, constraint, now } => {
                Outcome::Read(store.read(key, *constraint, *now).expect("known key"))
            }
            Op::Aggregate { kind, keys, constraint, now } => {
                let out = store.aggregate(*kind, keys, *constraint, *now).expect("valid query");
                let (lo, hi) = out.answer.to_bits();
                Outcome::Aggregate { lo_bits: lo, hi_bits: hi, refreshed: out.refreshed }
            }
        };
        outcomes.push(outcome);
    }
    (outcomes, store)
}

/// The pipelined execution: ops submitted through a `window`-deep wire
/// client over `transport`, harvested in submission order whenever the
/// window fills — and immediately after a Relative aggregate, whose
/// escalation rounds are data-dependent and issued later by the server
/// (what a correct application does with a data-dependent query). Ends
/// the session with `Shutdown`.
pub fn run_windowed<T: Transport>(transport: T, window: usize, ops: &[Op]) -> Vec<Outcome> {
    enum Pending {
        Read(Ticket),
        Write(Ticket),
        Aggregate(Ticket),
    }
    let mut client: RemoteStoreClient<String, T> =
        RemoteStoreClient::with_window(transport, window);
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut in_flight: Vec<Pending> = Vec::with_capacity(window);
    let flush = |client: &mut RemoteStoreClient<String, T>,
                 in_flight: &mut Vec<Pending>,
                 outcomes: &mut Vec<Outcome>| {
        for pending in in_flight.drain(..) {
            outcomes.push(match pending {
                Pending::Read(t) => Outcome::Read(client.wait_read(t).expect("known key")),
                Pending::Write(t) => Outcome::Write(client.wait_write(t).expect("known key")),
                Pending::Aggregate(t) => {
                    let out = client.wait_aggregate(t).expect("valid query");
                    let (lo, hi) = out.answer.to_bits();
                    Outcome::Aggregate { lo_bits: lo, hi_bits: hi, refreshed: out.refreshed }
                }
            });
        }
    };
    for op in ops {
        if in_flight.len() >= window {
            flush(&mut client, &mut in_flight, &mut outcomes);
        }
        match op {
            Op::Write { key, value, now } => {
                in_flight.push(Pending::Write(client.submit_write(key, *value, *now).unwrap()));
            }
            Op::Read { key, constraint, now } => {
                in_flight.push(Pending::Read(client.submit_read(key, *constraint, *now).unwrap()));
            }
            Op::Aggregate { kind, keys, constraint, now } => {
                in_flight.push(Pending::Aggregate(
                    client.submit_aggregate(*kind, keys, *constraint, *now).unwrap(),
                ));
                if matches!(constraint, Constraint::Relative(_)) {
                    flush(&mut client, &mut in_flight, &mut outcomes);
                }
            }
        }
    }
    flush(&mut client, &mut in_flight, &mut outcomes);
    client.shutdown().expect("clean shutdown");
    outcomes
}

/// Every op's outcome and the final fleet state must agree bit for bit.
pub fn assert_identical(
    shape: &Shape,
    ops: &[Op],
    (got, got_store): &(Vec<Outcome>, ShardedStore<String>),
    (want, want_store): &(Vec<Outcome>, ShardedStore<String>),
    tag: &str,
) {
    assert_eq!(got.len(), want.len(), "{tag}: op count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{tag}: op #{i} ({:?})", ops[i]);
    }
    let final_now = (shape.ticks + 1) * MS_PER_SEC;
    for i in 0..shape.n_keys {
        let k = key(i);
        assert_eq!(got_store.value(&k), want_store.value(&k), "{tag}: value of {k}");
        assert_eq!(
            got_store.internal_width(&k),
            want_store.internal_width(&k),
            "{tag}: width of {k}"
        );
        let cached =
            (got_store.cached_interval(&k, final_now), want_store.cached_interval(&k, final_now));
        match cached {
            (Some(g), Some(w)) => assert_eq!(g.to_bits(), w.to_bits(), "{tag}: interval of {k}"),
            (None, None) => {}
            other => panic!("{tag}: cache residency of {k} differs: {other:?}"),
        }
    }
    assert_eq!(
        got_store.metrics().merged().totals(),
        want_store.metrics().merged().totals(),
        "{tag}: metric totals"
    );
}
