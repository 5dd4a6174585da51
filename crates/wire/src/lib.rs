//! # apcache-wire
//!
//! A compact, length-prefixed binary frame protocol — plus
//! loopback and TCP transports — so the paper's sources and caches can
//! live in **different processes**.
//!
//! The SIGMOD 2001 protocol is explicitly distributed: sources push
//! [`Refresh`](apcache_core::Refresh)es to caches and answer
//! query-initiated refreshes with
//! [`ExactResponse`](apcache_core::ExactResponse)s over a network. Every
//! layer below this crate keeps the two in one address space; this crate
//! supplies the missing wire:
//!
//! * [`message`] — the protocol vocabulary as frames: the paper's
//!   `Refresh` / `ExactResponse` messages (generic over the key type as
//!   [`WireRefresh`] / [`WireExact`]), all three
//!   [`Constraint`](apcache_store::Constraint) forms, and the serving
//!   verbs `Read` / `Write` / `WriteBatch` / `Aggregate` / `Metrics` /
//!   `Subscribe` / `Unsubscribe` / `Shutdown` with their outcomes, plus
//!   the server-initiated `Push` frame. Hand-rolled std-only codec:
//!   fixed-width little-endian integers, `f64`s as raw IEEE-754 bits, so
//!   `decode(encode(x)) == x` bit-for-bit and precision metadata travels
//!   at near-zero cost;
//! * [`apcache_store::codec`] — not this crate's: the reader/writer
//!   primitives, the [`KeyCodec`] trait that carries generic application
//!   keys, and the [`KeyState`](apcache_store::KeyState) layout are the
//!   ones the durable spool writes to disk, defined once in the store;
//! * [`transport`] — the [`Transport`] trait with an in-process
//!   [`loopback`] pair (paired byte queues, for tests and benches) and a
//!   [`TcpTransport`] over real sockets;
//! * [`client`] / [`server`] — [`RemoteStoreClient`] speaks the serving
//!   verbs over any transport, **pipelined**: `submit_*` stamps each
//!   request with the frame header's request id and returns a
//!   [`Ticket`]; up to a window of requests ride the
//!   connection at once and are harvested out of order with `wait_*`
//!   (the blocking verbs are submit + wait). [`StoreServer`] fronts any
//!   [`ShardBackend`](apcache_shard::ShardBackend) — a
//!   [`PrecisionStore`](apcache_store::PrecisionStore), a
//!   [`ShardedStore`](apcache_shard::ShardedStore) fleet — with a
//!   no-runtime, in-order, call-reply loop: the *reference* the
//!   conformance suites diff the pipelined stack against. A live runtime is served by the `apcache-reactor` crate
//!   (`serve_reactor` over TCP, `Reactor::add_connection` in process),
//!   the one pipelined door: it fronts the runtime's ticketed surface,
//!   replies **out of order** as the shard actors finish, and
//!   multiplexes **server-initiated push frames** onto the same
//!   connection: `subscribe` opens a stream of
//!   [`PushEvent`](apcache_push::PushEvent)s for one key, delivered the
//!   moment the shard's cached interval changes (or a TTL lease
//!   lapses). The protocol also carries the **lease verbs**
//!   (`Lease` / `ReleaseLease` / `AdvanceTime`) and the **migration
//!   surface** (`KeyList` / `ExportKeys` / `ImportKeys`): a remote
//!   server is a full [`ShardBackend`](apcache_shard::ShardBackend), so
//!   an outer sharded ring can route some shards across the network and
//!   elastic resharding moves resident keys — adaptive widths, policy
//!   state, counters — over the wire with bit-for-bit fidelity. There
//!   is one frame version, [`VERSION`]; a frame at any other version is
//!   a decode error, fatal to its connection like any malformed frame;
//! * [`pool`] — [`ClientPool`]: many logical clients multiplexed over a
//!   few pipelined sockets with sticky member pinning, plus a pool-wide
//!   shutdown that drains every socket even when some peer is dead.
//!
//! Decoding is **defensive**: arbitrary bytes produce a [`WireError`]
//! (length caps, unknown-tag, truncation, trailing-garbage) — never a
//! panic, never an attacker-sized allocation. The conformance suite
//! (`tests/wire_conformance.rs`) holds a client talking through loopback
//! *and* through a localhost TCP socket bit-identical to a local
//! [`ShardedStore`](apcache_shard::ShardedStore) under θ = 1.
//!
//! ## Quick example
//!
//! ```
//! use std::thread;
//! use apcache_store::{Constraint, StoreBuilder};
//! use apcache_wire::{loopback, RemoteStoreClient, StoreServer};
//!
//! let store = StoreBuilder::new().source("cpu".to_string(), 40.0).build().unwrap();
//! let (mut server_end, client_end) = loopback();
//! let server = thread::spawn(move || {
//!     let mut server = StoreServer::new(store);
//!     server.serve::<String, _>(&mut server_end).unwrap();
//!     server.into_service()
//! });
//!
//! let mut client = RemoteStoreClient::<String, _>::new(client_end);
//! let r = client.read(&"cpu".to_string(), Constraint::Absolute(10.0), 0).unwrap();
//! assert!(r.answer.contains(40.0));
//! client.shutdown().unwrap();
//! let store = server.join().unwrap(); // the served store comes back
//! assert_eq!(store.metrics().totals().reads, 1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod error;
pub mod message;
pub mod pool;
pub mod server;
pub mod transport;

pub use apcache_store::KeyCodec;
pub use client::{RemoteAggregateOutcome, RemoteStoreClient, Ticket, DEFAULT_WINDOW};
pub use error::{FaultKind, RemoteError, WireError, WireFault};
pub use message::{
    decode_frame, decode_message, encode_framed, encode_to_vec, frame_to_vec, DecodedFrame,
    WireExact, WireMessage, WireRefresh, WireRequest, WireResponse, MAGIC, VERSION,
};
pub use pool::{ClientPool, PooledClient};
pub use server::{ServerExit, StoreServer};
pub use transport::{
    frame_bytes, loopback, loopback_streams, split_frame, LoopbackStream, LoopbackTransport,
    SplitStream, StreamTransport, TcpTransport, Transport, MAX_FRAME_LEN,
};
