//! # apcache-reactor
//!
//! An **event-driven server core** for the wire protocol: a small fixed
//! pool of worker threads drives thousands of pipelined connections
//! through `epoll` / `poll(2)` readiness (or a portable condvar
//! mailbox), in front of the actor runtime's ticketed surface.
//!
//! This is the **one pipelined door** in front of a runtime: a thread
//! pair per connection tops out around the platform's thread budget
//! long before the paper's workloads do, so every pipelined connection
//! — TCP or in-process — is a state machine on a fixed worker pool:
//!
//! * [`serve_reactor`] accepts on a listener and serves the whole wire
//!   contract: pipelined out-of-order replies, push subscriptions with
//!   per-subscription ordering, plain-HTTP `GET /metrics` sniffed off
//!   the first four bytes, subscription cancel on disconnect, and a
//!   bounded drain grace after the first client `Shutdown`;
//!   [`Reactor::add_connection`] serves any [`ReactorStream`] the same
//!   way without a listener (`tests/reactor_conformance.rs` holds the
//!   door bit-identical to the same operations applied in process);
//! * each worker owns its connections outright — poller, buffers,
//!   ticket routes, a private [`RuntimeHandle`](apcache_runtime::RuntimeHandle)
//!   clone — so the whole data path is lock-free across connections and
//!   completions are harvested in batches, **coalescing** every frame
//!   that became ready in one round into one socket write per
//!   connection (`apcache_push_frames_coalesced_total` counts the
//!   savings; `apcache_connections_open` and
//!   `apcache_reactor_wakeups_total` watch the pool);
//! * the [`Poller`] trait isolates the platform: `epoll` on Linux,
//!   `poll(2)` on other Unix, and a [`MailboxPoller`] everywhere else —
//!   the last fed by ready hooks, so the in-process
//!   [`LoopbackStream`](apcache_wire::LoopbackStream) transport drives
//!   the reactor with **no sockets or fd limits at all** (how the 10k
//!   connection test, `tests/many_connections.rs`, runs anywhere).
//!
//! The only `unsafe` in the crate is the syscall shim in its private
//! `sys` module (ten hand-declared POSIX/Linux calls; the workspace is
//! std-only by charter).
//!
//! ## Quick example
//!
//! ```
//! use apcache_reactor::{serve_reactor, ReactorConfig};
//! use apcache_runtime::Runtime;
//! use apcache_shard::ShardedStoreBuilder;
//! use apcache_store::Constraint;
//! use apcache_wire::{RemoteStoreClient, TcpTransport};
//!
//! let store = ShardedStoreBuilder::new()
//!     .shards(2)
//!     .source("cpu".to_string(), 40.0)
//!     .build()
//!     .unwrap();
//! let runtime = Runtime::launch(store).unwrap();
//! let handle = runtime.handle();
//!
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let server = std::thread::spawn(move || {
//!     serve_reactor(listener, handle, ReactorConfig::default()).unwrap();
//! });
//!
//! let mut client: RemoteStoreClient<String, _> =
//!     RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
//! let r = client.read(&"cpu".to_string(), Constraint::Absolute(10.0), 0).unwrap();
//! assert!(r.answer.contains(40.0));
//! client.shutdown().unwrap(); // stops the accept loop, drains, joins
//! server.join().unwrap();
//! runtime.shutdown().unwrap();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod buffer;
mod conn;
pub mod poller;
pub mod serve;
#[cfg_attr(not(unix), allow(dead_code))]
mod sys;

pub use buffer::{ReadBuf, WriteBuf, READ_CHUNK};
#[cfg(target_os = "linux")]
pub use poller::EpollPoller;
#[cfg(unix)]
pub use poller::PollFdPoller;
pub use poller::{build_poller, Interest, MailboxPoller, PollEvents, Poller, PollerKind, RawFd};
pub use serve::{serve_reactor, Reactor, ReactorConfig, ReactorStream};
