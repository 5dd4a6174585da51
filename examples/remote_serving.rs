//! Remote serving: the shard fleet on the far side of a TCP socket.
//!
//! Launches an actor-per-shard `Runtime`, puts `serve_reactor` in
//! front of it on an ephemeral localhost port, and drives it from two
//! `RemoteStoreClient`s on real sockets — every read, write, and bounded
//! aggregate crosses the wire as a compact binary frame (the paper's
//! `Refresh`/`ExactResponse` vocabulary plus the serving verbs). A final
//! client asks for the deployment metrics and sends `Shutdown`, which
//! closes the front door; the runtime then drains normally.
//!
//! Run with: `cargo run --example remote_serving`

use std::net::TcpListener;
use std::thread;

use apcache::queries::AggregateKind;
use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::Runtime;
use apcache::shard::{Constraint, InitialWidth, ShardedStoreBuilder};
use apcache::wire::{RemoteStoreClient, TcpTransport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sixteen sensors on four shards behind the actor runtime.
    let mut builder =
        ShardedStoreBuilder::new().shards(4).vnodes(64).initial_width(InitialWidth::Fixed(4.0));
    for i in 0..16u32 {
        builder = builder.source(format!("sensor/{i:02}"), 100.0 + f64::from(i));
    }
    let runtime = Runtime::launch(builder.build()?)?;
    let handle = runtime.handle();

    // The front door: accept TCP connections and serve them all from
    // the reactor's fixed worker pool.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    println!("serving {} shard actors on {addr}", runtime.shard_count());
    let acceptor = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));

    const TICKS: u64 = 200;
    let workers: Vec<_> = (0..2u32)
        .map(|c| {
            thread::spawn(
                move || -> Result<(u64, u64), Box<dyn std::error::Error + Send + Sync>> {
                    let mut client: RemoteStoreClient<String, _> =
                        RemoteStoreClient::new(TcpTransport::connect(addr)?);
                    // Each client owns half the sensors: writes go up as one
                    // frame per tick (WriteBatch), reads come back bounded.
                    let mine: Vec<String> = (0..16u32)
                        .filter(|i| i % 2 == c)
                        .map(|i| format!("sensor/{i:02}"))
                        .collect();
                    let (mut escapes, mut refreshing_reads) = (0u64, 0u64);
                    for t in 1..=TICKS {
                        let batch: Vec<(String, f64)> = mine
                            .iter()
                            .enumerate()
                            .map(|(j, key)| {
                                let wobble = ((t + j as u64) as f64 / 7.0).sin() * 9.0;
                                (key.clone(), 100.0 + j as f64 + wobble)
                            })
                            .collect();
                        escapes += client.write_batch(&batch, t)?.refreshes as u64;
                        let key = &mine[(t % mine.len() as u64) as usize];
                        let read = client.read(key, Constraint::Absolute(6.0), t)?;
                        refreshing_reads += u64::from(read.refreshed);
                        if t % 50 == 0 {
                            let sum = client.aggregate(
                                AggregateKind::Sum,
                                &mine,
                                Constraint::Absolute(20.0),
                                t,
                            )?;
                            println!(
                                "client {c} t={t}: SUM(own 8 sensors) = {} ({} exact fetches)",
                                sum.answer,
                                sum.refreshed.len()
                            );
                        }
                    }
                    Ok((escapes, refreshing_reads))
                },
            )
        })
        .collect();
    for (c, worker) in workers.into_iter().enumerate() {
        let (escapes, refreshing_reads) = worker.join().expect("client thread").unwrap();
        println!("client {c}: {escapes} write escapes, {refreshing_reads} refreshing reads");
    }

    // A last client reads the merged deployment metrics over the wire and
    // closes the front door with `Shutdown`.
    let mut closer: RemoteStoreClient<String, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr)?);
    let metrics = closer.metrics().map_err(|e| e.to_string())?;
    let totals = metrics.totals();
    println!(
        "remote metrics: {} writes, {} reads ({} hits), {} VRs, {} QRs, cost {:.1}",
        totals.writes,
        totals.reads,
        totals.cache_hits,
        totals.vr_count,
        totals.qr_count,
        totals.total_cost()
    );
    closer.shutdown().map_err(|e| e.to_string())?;
    acceptor.join().expect("acceptor thread")?;

    // The wire is closed; the runtime drains and hands the fleet back.
    let store = runtime.into_store()?;
    println!(
        "drained: {} keys resident, counters match = {}",
        store.cached_len(),
        store.metrics().merged().totals() == totals
    );
    Ok(())
}
