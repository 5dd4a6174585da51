//! Metrics scrape: Prometheus-style observability on the serving port.
//!
//! Launches an actor-per-shard `Runtime` behind `serve_reactor`, puts
//! some frame traffic through it, then demonstrates both telemetry doors
//! on the *same* TCP port:
//!
//! 1. the wire-v3 `Exposition` verb — a framed client asks the runtime
//!    for the deployment's full text exposition (plus `PushStats` for the
//!    refresh-subscription fan-out report);
//! 2. a plain-HTTP `GET /metrics` — any Prometheus scraper can point at
//!    the serving address with no frame protocol at all, because the
//!    server sniffs the first bytes of each connection.
//!
//! The counters in both answers are rendered from the same per-key
//! `StoreMetrics` the paper's experiments report (Ω as
//! `apcache_refresh_cost_total`, VR/QR as `apcache_refreshes_total`),
//! so a scrape is bit-equal with the in-process rollup.
//!
//! Run with: `cargo run --example metrics_scrape`

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::Runtime;
use apcache::shard::{Constraint, InitialWidth, ShardedStoreBuilder};
use apcache::wire::{RemoteStoreClient, TcpTransport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder =
        ShardedStoreBuilder::new().shards(2).vnodes(64).initial_width(InitialWidth::Fixed(4.0));
    for i in 0..8u32 {
        builder = builder.source(format!("sensor/{i:02}"), 100.0 + f64::from(i));
    }
    let runtime = Runtime::launch(builder.build()?)?;
    let handle = runtime.handle();

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    println!("serving on {addr} (frames and GET /metrics share the port)");
    let acceptor = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));

    // Some framed traffic so the counters have something to say.
    let mut client: RemoteStoreClient<String, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr)?);
    for t in 1..=50u64 {
        let key = format!("sensor/{:02}", t % 8);
        client.write(&key, 100.0 + (t as f64 / 5.0).sin() * 9.0, t)?;
        client.read(&key, Constraint::Absolute(6.0), t)?;
    }

    // Door 1: the wire-v3 telemetry verbs, as frames.
    let report = client.push_stats().map_err(|e| e.to_string())?;
    println!(
        "push stats: {} subscribers watching {} keys, {} leases ({} expired)",
        report.subscribers, report.watched_keys, report.leases, report.expired
    );
    let exposition = client.exposition().map_err(|e| e.to_string())?;
    println!("exposition verb returned {} bytes", exposition.len());

    // Door 2: plain HTTP on the same port — what a Prometheus scraper does.
    let mut scraper = TcpStream::connect(addr)?;
    scraper.write_all(b"GET /metrics HTTP/1.1\r\nHost: apcache\r\nAccept: text/plain\r\n\r\n")?;
    let mut response = String::new();
    scraper.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or("malformed HTTP response")?;
    println!("HTTP scrape: {}", head.lines().next().unwrap_or_default());

    // Show the families the paper's vocabulary maps onto.
    for line in body.lines() {
        if line.starts_with("# TYPE apcache_re")
            || line.starts_with("apcache_refreshes_total")
            || line.starts_with("apcache_refresh_cost_total")
            || line.starts_with("apcache_reads_total")
            || line.starts_with("apcache_cache_hits_total")
        {
            println!("  {line}");
        }
    }

    // Both doors render from the same rollup: the verb's text and the
    // HTTP body agree series-for-series (modulo the moving gauges).
    println!(
        "scrape and verb agree on refresh cost: {}",
        body.lines()
            .any(|l| exposition.contains(l.trim()) && l.starts_with("apcache_refresh_cost_total"))
    );

    client.shutdown().map_err(|e| e.to_string())?;
    acceptor.join().expect("acceptor thread")?;
    runtime.shutdown()?;
    Ok(())
}
