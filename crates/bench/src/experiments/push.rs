//! Push fan-out latency: loopback write→push delivery time as a
//! function of subscriber count.
//!
//! Not a paper figure — this harness measures the v3 streaming path end
//! to end: client write → frame → reactor pump → shard actor (escape,
//! refresh, registry fan-out) → reactor harvest → one push frame per
//! subscriber → client codec → push queue. The actor queues every push
//! *before* it sends the write's own completion, so the moment the
//! blocking write returns, all of its pushes have crossed the wire; the
//! measured time covers the write **and** the full fan-out. The
//! acceptance bar is sub-millisecond mean latency at 100 subscribers on
//! loopback.

use std::time::Instant;

use apcache_core::Rng;
use apcache_push::PushFilter;
use apcache_runtime::Runtime;
use apcache_shard::{ShardedStore, ShardedStoreBuilder};
use apcache_store::InitialWidth;
use apcache_wire::RemoteStoreClient;

use crate::experiments::common::{serve_loopback, MASTER_SEED};
use crate::table::{fmt_num, Table};

const SUBSCRIBERS: [usize; 3] = [1, 100, 10_000];

/// Writes measured per subscriber count, scaled so the total push-frame
/// volume stays comparable across rows (every write fans out to every
/// subscriber).
fn writes_for(subscribers: usize) -> usize {
    match subscribers {
        0..=9 => 2_000,
        10..=999 => 400,
        _ => 40,
    }
}

fn build_fleet() -> ShardedStore<u64> {
    // One hot key, small growth rate: the measured writes alternate
    // ±5e12 jumps, far beyond any width the escapes can grow (10 ×
    // 1.01^2000 < 5e9), so every write escapes and pushes.
    ShardedStoreBuilder::new()
        .shards(1)
        .alpha(0.01)
        .rng(Rng::seed_from_u64(MASTER_SEED))
        .initial_width(InitialWidth::Fixed(10.0))
        .source(0u64, 0.0)
        .build()
        .expect("fleet config valid")
}

/// Mean / p50 / p99 write→push latency (µs) over `writes` escaping
/// writes with `subscribers` push subscriptions on the hot key.
fn drive(subscribers: usize, writes: usize) -> (f64, f64, f64) {
    let runtime = Runtime::launch(build_fleet()).expect("runtime launches");
    let (reactor, mut ends) = serve_loopback(&runtime, 1);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::with_window(ends.remove(0), 64);
    for _ in 0..subscribers {
        client.subscribe(&0u64, PushFilter::Always, 0).expect("subscribe");
    }

    let mut lat_us = Vec::with_capacity(writes);
    for i in 0..writes {
        let value = if i % 2 == 0 { 5e12 } else { -5e12 };
        let started = Instant::now();
        client.write(&0u64, value, 1 + i as u64).expect("known key");
        // The actor pushed before replying: returning from the blocking
        // write means every subscriber's frame is already decoded and
        // queued — this stamp closes over the whole fan-out.
        lat_us.push(started.elapsed().as_secs_f64() * 1e6);
        let mut delivered = 0usize;
        while client.poll_push().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, subscribers, "write {i} must push to every subscriber");
    }

    client.shutdown().expect("clean shutdown");
    reactor.join();
    drop(runtime);

    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = lat_us.iter().sum::<f64>() / lat_us.len() as f64;
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    (mean, pct(0.50), pct(0.99))
}

/// Regenerate the write→push latency table (subscriber-count sweep).
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "Write->push latency on loopback: microseconds by subscriber count",
        vec![
            "subscribers".into(),
            "writes".into(),
            "mean us".into(),
            "p50 us".into(),
            "p99 us".into(),
            "pushes/write".into(),
        ],
    );
    table.note("Every write escapes its interval, so every write fans out");
    table.note("one push frame per subscriber; the stamp closes when the");
    table.note("blocking write returns, which the actor's push-before-reply");
    table.note("ordering guarantees is after ALL pushes were delivered.");
    table.note("Acceptance bar: sub-millisecond mean at 100 subscribers.");
    for &subscribers in &SUBSCRIBERS {
        let writes = writes_for(subscribers);
        let (mean, p50, p99) = drive(subscribers, writes);
        table.push_row(vec![
            subscribers.to_string(),
            writes.to_string(),
            fmt_num(mean),
            fmt_num(p50),
            fmt_num(p99),
            subscribers.to_string(),
        ]);
    }
    vec![table]
}
