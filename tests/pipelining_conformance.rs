//! Pipelining conformance: a windowed client speaking the wire
//! protocol to the out-of-order pipelined server (a `Reactor` in front
//! of the actor runtime) must be **bit-identical** to the same
//! operation sequence issued sequentially against a local
//! `ShardedStore` under θ = 1 — answers, escape counts, refresh plans,
//! final per-key protocol state, and metric totals — for window ∈
//! {1, 4, 32} and shards ∈ {1, 2, 4}.
//!
//! Why this holds even out of order: submission order fixes each shard
//! mailbox's order (the reactor worker submits frames as they arrive,
//! and single-round aggregates issue all their legs at submit time), so
//! per-key state transitions replay exactly; only the *responses* travel
//! out of order, and the client reassembles them by ticket. The one
//! genuinely asynchronous case — a multi-shard Relative aggregate, whose
//! escalation rounds are issued later, as their probes complete — is
//! harvested to completion before dependent traffic is submitted (the
//! trace flushes the window after each Relative aggregate), mirroring
//! what a correct application does with a data-dependent query.

mod common;
#[path = "common/serving.rs"]
mod serving;

use apcache::runtime::Runtime;
use apcache::wire::RemoteStoreClient;
use common::{assert_identical, fleet, run_sequential, run_windowed, trace, Op, Shape};
use serving::reactor_over_loopback as serve;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const WINDOWS: [usize; 3] = [1, 4, 32];
const SHAPE: Shape = Shape { n_keys: 24, ticks: 120, seed: 0x41BE_2001 };

#[test]
fn pipelined_window_is_bit_identical_to_sequential() {
    let ops = trace(&SHAPE, SHAPE.seed);
    for &shards in &SHARD_COUNTS {
        let reference = run_sequential(&SHAPE, shards, &ops);
        for &window in &WINDOWS {
            let runtime = Runtime::launch(fleet(&SHAPE, shards)).expect("runtime launches");
            let (reactor, client_end) = serve(&runtime.handle());
            let outcomes = run_windowed(client_end, window, &ops);
            reactor.join();
            let piped = (outcomes, runtime.into_store().expect("drain"));
            let tag = format!("shards={shards} window={window}");
            assert_identical(&SHAPE, &ops, &piped, &reference, &tag);
        }
    }
}

#[test]
fn remote_metrics_match_the_drained_fleet() {
    // The metrics snapshot crosses the pipelined path too: what the
    // client reads over the wire equals the drained fleet's own rollup.
    let ops = trace(&SHAPE, SHAPE.seed ^ 7);
    let runtime = Runtime::launch(fleet(&SHAPE, 2)).expect("runtime launches");
    let (reactor, client_end) = serve(&runtime.handle());
    let mut client: RemoteStoreClient<String, _> = RemoteStoreClient::with_window(client_end, 8);
    for op in ops.iter().take(400) {
        match op {
            Op::Write { key, value, now } => {
                client.write(key, *value, *now).expect("known key");
            }
            Op::Read { key, constraint, now } => {
                client.read(key, *constraint, *now).expect("known key");
            }
            Op::Aggregate { kind, keys, constraint, now } => {
                client.aggregate(*kind, keys, *constraint, *now).expect("valid query");
            }
        }
    }
    let remote = client.metrics().expect("metrics");
    client.shutdown().expect("clean shutdown");
    reactor.join();
    let store = runtime.into_store().expect("drain");
    assert_eq!(remote.totals(), store.metrics().merged().totals());
}
