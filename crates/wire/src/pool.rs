//! Client-side connection pooling: many **logical clients** multiplexed
//! over a few **pipelined sockets**.
//!
//! A deployment with hundreds of cache readers should not hold hundreds
//! of TCP connections to each serving node. A [`ClientPool`] owns a
//! small fixed set of [`RemoteStoreClient`] members (one per socket) and
//! hands out cheap [`PooledClient`] handles, each **pinned** to one
//! member by `logical_index % members` — the same sticky-assignment
//! shape as a pooled SMTP sender: a logical client's requests always
//! ride the same socket, in submission order, so per-client FIFO (and
//! with it the θ = 1 determinism the conformance suites rely on) is
//! preserved while the socket count stays fixed.
//!
//! Pipelining is what makes the multiplexing free: each member socket
//! carries its own in-flight window, so eight logical clients over two
//! sockets keep up to two windows of requests in flight, and
//! `tests/pool_conformance.rs` holds their results bit-identical to
//! one socket per client.
//!
//! [`ClientPool::shutdown`] extends the single-connection drain contract
//! to the whole pool: **every** member is drained — subscriptions
//! cancelled, in-flight tickets harvested, queued pushes discarded,
//! `Shutdown` acknowledged — even when some member's peer is already
//! dead; the first failure is reported only after all sockets have been
//! torn down.

use std::sync::{Arc, Mutex};

use apcache_core::{Interval, TimeMs};
use apcache_push::{LeaseConfig, PushEvent, PushFilter};
use apcache_queries::AggregateKind;
use apcache_store::{Constraint, KeyCodec, ReadResult, StoreMetrics, WriteOutcome};

use crate::client::{RemoteAggregateOutcome, RemoteStoreClient, Ticket};
use crate::error::{RemoteError, WireError};
use crate::transport::Transport;

/// One member slot: `None` once the pool has shut the socket down, so a
/// straggling [`PooledClient`] gets a clean `Closed` error instead of
/// touching a dead connection.
type Member<K, T> = Arc<Mutex<Option<RemoteStoreClient<K, T>>>>;

/// A fixed set of pipelined connections to one serving node, multiplexed
/// among any number of logical clients. See the [module docs](self).
#[derive(Debug)]
pub struct ClientPool<K, T> {
    members: Vec<Member<K, T>>,
    /// Next logical index [`handle`](ClientPool::handle) will pin.
    next_logical: usize,
}

impl<K: KeyCodec + Ord + Clone, T: Transport> ClientPool<K, T> {
    /// Build a pool over already-connected transports, one member per
    /// transport, each with the client's default in-flight window.
    ///
    /// Panics if `transports` is empty — a pool with no sockets can
    /// serve nothing.
    pub fn new(transports: Vec<T>) -> Self {
        Self::with_window(transports, crate::client::DEFAULT_WINDOW)
    }

    /// Build a pool with an explicit per-member in-flight window.
    pub fn with_window(transports: Vec<T>, window: usize) -> Self {
        assert!(!transports.is_empty(), "a client pool needs at least one transport");
        ClientPool {
            members: transports
                .into_iter()
                .map(|t| Arc::new(Mutex::new(Some(RemoteStoreClient::with_window(t, window)))))
                .collect(),
            next_logical: 0,
        }
    }

    /// Number of member sockets.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// A logical client pinned to member `index % members()` — the
    /// sticky assignment that keeps one logical client's requests on one
    /// socket, in order. Pinning is pure arithmetic: calling this twice
    /// with the same index yields handles that share a member (and its
    /// ticket space).
    pub fn logical(&self, index: usize) -> PooledClient<K, T> {
        let member_index = index % self.members.len();
        PooledClient {
            member: Arc::clone(&self.members[member_index]),
            member_index,
            logical_index: index,
        }
    }

    /// The next unclaimed logical client (round-robin over members).
    pub fn handle(&mut self) -> PooledClient<K, T> {
        let handle = self.logical(self.next_logical);
        self.next_logical += 1;
        handle
    }

    /// Shut every member down: per socket, cancel live subscriptions,
    /// drain in-flight tickets, discard queued pushes, send `Shutdown`,
    /// and await the ack — the single-connection drain contract applied
    /// to the whole pool. A member whose peer is dead does **not** stop
    /// the drain: every remaining socket is still torn down, and the
    /// first failure is returned only after all members were attempted.
    /// Outstanding [`PooledClient`] handles observe `Closed` afterwards.
    pub fn shutdown(self) -> Result<(), RemoteError> {
        let mut first_failure = None;
        for member in &self.members {
            // A poisoned lock means some logical client panicked mid-call;
            // the drain must still reach the members behind it.
            let mut slot = member.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(client) = slot.take() {
                if let Err(e) = client.shutdown() {
                    first_failure.get_or_insert(e);
                }
            }
        }
        match first_failure {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// One logical client of a [`ClientPool`]: every call locks its pinned
/// member for the duration of the verb and delegates. Blocking verbs
/// hold the member while they harvest, so logical clients sharing a
/// socket serialize — that is the pool's backpressure, not a deadlock
/// (the server answers regardless of which handle is waiting).
///
/// Cloning is cheap and yields another handle to the same pinned member.
#[derive(Debug, Clone)]
pub struct PooledClient<K, T> {
    member: Member<K, T>,
    member_index: usize,
    logical_index: usize,
}

impl<K: KeyCodec + Ord + Clone, T: Transport> PooledClient<K, T> {
    /// The member socket this handle is pinned to.
    pub fn member_index(&self) -> usize {
        self.member_index
    }

    /// The logical index this handle was created with.
    pub fn logical_index(&self) -> usize {
        self.logical_index
    }

    /// Run `f` against the pinned member, or fail `Closed` if the pool
    /// already shut it down.
    fn with<R>(
        &self,
        f: impl FnOnce(&mut RemoteStoreClient<K, T>) -> Result<R, RemoteError>,
    ) -> Result<R, RemoteError> {
        let mut slot = self.member.lock().unwrap_or_else(|e| e.into_inner());
        match slot.as_mut() {
            Some(client) => f(client),
            None => Err(RemoteError::Wire(WireError::Closed)),
        }
    }

    // -----------------------------------------------------------------
    // Submission surface (tickets are member-scoped: redeem them through
    // any handle pinned to the same member — normally this one).
    // -----------------------------------------------------------------

    /// Submit a point read on the pinned member.
    pub fn submit_read(
        &self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.with(|c| c.submit_read(key, constraint, now))
    }

    /// Submit a write on the pinned member.
    pub fn submit_write(&self, key: &K, value: f64, now: TimeMs) -> Result<Ticket, RemoteError> {
        self.with(|c| c.submit_write(key, value, now))
    }

    /// Submit a write batch on the pinned member.
    pub fn submit_write_batch(
        &self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.with(|c| c.submit_write_batch(items, now))
    }

    /// Submit a bounded aggregate on the pinned member.
    pub fn submit_aggregate(
        &self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.with(|c| c.submit_aggregate(kind, keys, constraint, now))
    }

    /// Submit a metrics snapshot request on the pinned member.
    pub fn submit_metrics(&self) -> Result<Ticket, RemoteError> {
        self.with(|c| c.submit_metrics())
    }

    // -----------------------------------------------------------------
    // Harvest surface.
    // -----------------------------------------------------------------

    /// Redeem a read ticket.
    pub fn wait_read(&self, ticket: Ticket) -> Result<ReadResult, RemoteError> {
        self.with(|c| c.wait_read(ticket))
    }

    /// Redeem a write or write-batch ticket.
    pub fn wait_write(&self, ticket: Ticket) -> Result<WriteOutcome, RemoteError> {
        self.with(|c| c.wait_write(ticket))
    }

    /// Redeem an aggregate ticket.
    pub fn wait_aggregate(&self, ticket: Ticket) -> Result<RemoteAggregateOutcome<K>, RemoteError> {
        self.with(|c| c.wait_aggregate(ticket))
    }

    /// Redeem a metrics ticket.
    pub fn wait_metrics(&self, ticket: Ticket) -> Result<StoreMetrics<K>, RemoteError> {
        self.with(|c| c.wait_metrics(ticket))
    }

    // -----------------------------------------------------------------
    // Blocking surface.
    // -----------------------------------------------------------------

    /// Read `key` to the given precision through the pinned member.
    pub fn read(
        &self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, RemoteError> {
        self.with(|c| c.read(key, constraint, now))
    }

    /// Push a new exact value for `key` through the pinned member.
    pub fn write(&self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, RemoteError> {
        self.with(|c| c.write(key, value, now))
    }

    /// Apply a batch of writes in slice order as one frame.
    pub fn write_batch(
        &self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<WriteOutcome, RemoteError> {
        self.with(|c| c.write_batch(items, now))
    }

    /// Bounded aggregate over `keys` through the pinned member.
    pub fn aggregate(
        &self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<RemoteAggregateOutcome<K>, RemoteError> {
        self.with(|c| c.aggregate(kind, keys, constraint, now))
    }

    /// Snapshot the remote store's serving metrics.
    pub fn metrics(&self) -> Result<StoreMetrics<K>, RemoteError> {
        self.with(|c| c.metrics())
    }

    /// Grant (or refresh) a TTL lease on the remote key.
    pub fn lease(&self, key: &K, cfg: LeaseConfig, now: TimeMs) -> Result<bool, RemoteError> {
        self.with(|c| c.lease(key, cfg, now))
    }

    /// Release the remote lease on `key`; returns whether one existed.
    pub fn release_lease(&self, key: &K, now: TimeMs) -> Result<bool, RemoteError> {
        self.with(|c| c.release_lease(key, now))
    }

    // -----------------------------------------------------------------
    // The push channel (member-scoped, like tickets: pushes for a
    // subscription are queued on the member socket that carries it).
    // -----------------------------------------------------------------

    /// Open a push subscription on `key` through the pinned member.
    pub fn subscribe(
        &self,
        key: &K,
        filter: PushFilter,
        now: TimeMs,
    ) -> Result<(Ticket, Interval), RemoteError> {
        self.with(|c| c.subscribe(key, filter, now))
    }

    /// Cancel subscription `sub` and wait for the ack.
    pub fn unsubscribe(&self, sub: Ticket) -> Result<bool, RemoteError> {
        self.with(|c| c.unsubscribe(sub))
    }

    /// Pop the oldest queued push on the pinned member, if any, without
    /// touching the transport.
    pub fn poll_push(&self) -> Result<Option<(Ticket, PushEvent<K>)>, RemoteError> {
        self.with(|c| Ok(c.poll_push()))
    }

    /// Block until a push arrives on the pinned member and pop it. Holds
    /// the member lock while blocking — only call with at least one
    /// active subscription on this member.
    pub fn next_push(&self) -> Result<(Ticket, PushEvent<K>), RemoteError> {
        self.with(|c| c.next_push())
    }
}

#[cfg(test)]
mod tests {
    use std::thread;

    use apcache_store::{InitialWidth, StoreBuilder};

    use super::*;
    use crate::server::StoreServer;
    use crate::transport::{loopback, LoopbackTransport};

    /// A pool whose members each front their own copy of a small store
    /// (call-reply servers are enough for pinning/shutdown semantics).
    fn pool_of(
        members: usize,
    ) -> (ClientPool<String, LoopbackTransport>, Vec<thread::JoinHandle<()>>) {
        let mut transports = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..members {
            let (mut server_t, client_t) = loopback();
            servers.push(thread::spawn(move || {
                let store = StoreBuilder::new()
                    .initial_width(InitialWidth::Fixed(10.0))
                    .source("a".to_string(), 100.0)
                    .source("b".to_string(), 200.0)
                    .build()
                    .unwrap();
                StoreServer::new(store).serve::<String, _>(&mut server_t).unwrap();
            }));
            transports.push(client_t);
        }
        (ClientPool::new(transports), servers)
    }

    #[test]
    fn logical_clients_pin_sticky_and_round_robin() {
        let (mut pool, servers) = pool_of(2);
        assert_eq!(pool.members(), 2);
        let handles: Vec<_> = (0..8).map(|_| pool.handle()).collect();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.logical_index(), i);
            assert_eq!(h.member_index(), i % 2);
        }
        // Same logical index → same member, deterministically.
        assert_eq!(pool.logical(5).member_index(), handles[5].member_index());
        // All eight logical clients serve over two sockets.
        for (i, h) in handles.iter().enumerate() {
            let r = h.read(&"a".to_string(), Constraint::Absolute(20.0), i as u64).unwrap();
            assert!(r.answer.contains(100.0));
        }
        pool.shutdown().unwrap();
        for s in servers {
            s.join().unwrap();
        }
    }

    #[test]
    fn shutdown_closes_every_member_and_straggler_handles_see_closed() {
        let (pool, servers) = pool_of(3);
        let straggler = pool.logical(1);
        pool.shutdown().unwrap();
        // Every server saw its Shutdown frame and exited.
        for s in servers {
            s.join().unwrap();
        }
        let err = straggler.read(&"a".to_string(), Constraint::Exact, 0).unwrap_err();
        assert_eq!(err, RemoteError::Wire(WireError::Closed));
    }

    #[test]
    fn a_dead_member_does_not_stop_the_pool_drain() {
        // Member 0's peer hangs up without answering; member 1 is
        // healthy. Pool shutdown must still drain and acknowledge member
        // 1, then report member 0's failure.
        let (server_t0, client_t0) = loopback();
        drop(server_t0);
        let (mut server_t1, client_t1) = loopback();
        let healthy = thread::spawn(move || {
            let store = StoreBuilder::new().source("a".to_string(), 1.0).build().unwrap();
            StoreServer::new(store).serve::<String, _>(&mut server_t1).unwrap()
        });
        let pool: ClientPool<String, _> = ClientPool::new(vec![client_t0, client_t1]);
        let err = pool.shutdown().unwrap_err();
        assert!(matches!(err, RemoteError::Wire(_)), "unexpected {err:?}");
        // The healthy member was acknowledged: its server exited via
        // Shutdown, not by EOF.
        assert_eq!(healthy.join().unwrap(), crate::server::ServerExit::Shutdown);
    }
}
