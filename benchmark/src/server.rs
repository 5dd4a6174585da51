//! The server under test: the product as shipped, in-process —
//! `ShardedStoreBuilder` (2 shards, seeded `Rng`) → `Runtime::launch`
//! (default `RuntimeConfig`) → `serve_reactor` on `127.0.0.1:0` with the
//! epoll poller. Clients reach it only through real `TcpStream`s.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use apcache_core::Rng;
use apcache_reactor::{build_poller, serve_reactor, PollerKind, ReactorConfig};
use apcache_runtime::{Runtime, RuntimeHandle};
use apcache_shard::{ShardedStore, ShardedStoreBuilder};
use apcache_store::{FsyncPolicy, SpoolConfig};
use apcache_wire::{RemoteStoreClient, TcpTransport, WireError};

use crate::drive::{Counting, WireBytes};

use crate::procfs::ACCEPT_THREAD;
use crate::workloads::{Workload, SHARDS};

pub type Client = RemoteStoreClient<u64, Counting<TcpTransport>>;

/// The spool tuning of `ingest_durable`: the product default segment
/// size, with the fsync policy spelled out because it is the point.
pub fn spool_config() -> SpoolConfig {
    SpoolConfig { fsync: FsyncPolicy::Always, ..SpoolConfig::default() }
}

/// A reply this overdue is a hang, not a tail.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

pub fn reactor_config() -> ReactorConfig {
    ReactorConfig { poller: PollerKind::Epoll, ..ReactorConfig::default() }
}

/// `PollerKind::Epoll` silently falls back to `poll(2)` or the mailbox
/// off Linux; this benchmark's numbers are the epoll door's or nothing.
pub fn require_epoll() -> Result<(), String> {
    if !cfg!(target_os = "linux") {
        return Err("the epoll backend exists on Linux only; refusing to measure a fallback".into());
    }
    build_poller(PollerKind::Epoll).map(drop).map_err(|e| format!("epoll cannot be built: {e}"))
}

pub fn build_store(
    workload: &Workload,
    seed: u64,
    initial: &[f64],
    spool_dir: Option<&str>,
) -> ShardedStore<u64> {
    let mut builder = ShardedStoreBuilder::new().shards(SHARDS).rng(Rng::seed_from_u64(seed));
    if let Some(capacity) = workload.capacity_per_shard {
        builder = builder.capacity_per_shard(capacity);
    }
    if let Some(dir) = spool_dir {
        builder = builder.with_spool_config(dir, spool_config());
    }
    for (key, &value) in initial.iter().enumerate() {
        builder = builder.source(key as u64, value);
    }
    builder.build().expect("the workload's store configuration is valid")
}

pub struct Server {
    runtime: Runtime<u64>,
    pub handle: RuntimeHandle<u64>,
    pub addr: SocketAddr,
    accept: JoinHandle<Result<(), WireError>>,
}

impl Server {
    pub fn start(store: ShardedStore<u64>) -> Server {
        let runtime = Runtime::launch(store).expect("runtime launches");
        let handle = runtime.handle();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().expect("bound listener has an address");
        let door = handle.clone();
        let accept = thread::Builder::new()
            .name(ACCEPT_THREAD.into())
            .spawn(move || serve_reactor(listener, door, reactor_config()))
            .expect("spawn the accept thread");
        Server { runtime, handle, addr, accept }
    }

    /// A connection outside the load (probes, ladder, teardown).
    pub fn connect(&self, window: usize) -> Client {
        connect(self.addr, window, &Arc::default())
    }

    /// Teardown as a client sees it: the `Shutdown` verb closes the
    /// door, then the runtime drains and hands its store back in its
    /// exact final state — without a checkpoint, so a durable store's
    /// log still holds every record since the build-time snapshot.
    pub fn stop(self) -> ShardedStore<u64> {
        self.connect(1).shutdown().expect("the server acknowledges Shutdown");
        self.accept.join().expect("accept thread").expect("serve_reactor exits cleanly");
        drop(self.handle);
        self.runtime.into_store().expect("runtime drains into its store")
    }
}

/// Connect with the product's pipelined client; frame bytes are added
/// to `bytes`. A reply overdue by [`REPLY_TIMEOUT`] fails the run
/// instead of hanging it.
pub fn connect(addr: SocketAddr, window: usize, bytes: &Arc<WireBytes>) -> Client {
    RemoteStoreClient::with_window(connect_transport(addr, bytes), window)
}

pub fn connect_transport(addr: SocketAddr, bytes: &Arc<WireBytes>) -> Counting<TcpTransport> {
    let transport = TcpTransport::connect(addr).expect("connect to the server under test");
    transport.inner().set_read_timeout(Some(REPLY_TIMEOUT)).expect("set the reply timeout");
    Counting::new(transport, Arc::clone(bytes))
}
