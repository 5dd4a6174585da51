//! An `accept` error must not leak the reactor: `serve_reactor` joins
//! its workers before it returns the error. A test binary of its own,
//! because it counts the process's threads by name.
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::time::{Duration, Instant};

use apcache_reactor::{serve_reactor, ReactorConfig};
use apcache_runtime::Runtime;
use apcache_shard::ShardedStoreBuilder;

/// Threads of this process named like a reactor worker. `comm` keeps 15
/// bytes, so `apcache-reactor-0` reads back as `apcache-reactor`.
fn reactor_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("apcache-reacto"))
        .count()
}

#[test]
fn an_accept_error_joins_the_workers_before_it_returns() {
    let store = ShardedStoreBuilder::new().shards(1).source(1u64, 1.0).build().unwrap();
    let runtime = Runtime::launch(store).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    // Nothing ever dials it, so the first accept fails with `WouldBlock`.
    listener.set_nonblocking(true).unwrap();
    let before = reactor_threads();

    let config = ReactorConfig { workers: 2, ..ReactorConfig::default() };
    assert!(serve_reactor(listener, runtime.handle(), config).is_err());

    // A joined thread can linger in procfs for the instant its exit
    // takes; a leaked worker never leaves.
    let deadline = Instant::now() + Duration::from_secs(5);
    while reactor_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(reactor_threads(), before, "reactor workers outlived serve_reactor");
    runtime.shutdown().unwrap();
}
