//! The serving side of the wire: a [`StoreService`] abstraction over the
//! workspace's store façades and a [`StoreServer`] loop that decodes
//! requests off a [`Transport`], dispatches them, and ships outcomes back.

use std::hash::Hash;

use apcache_core::{Interval, TimeMs};
use apcache_queries::AggregateKind;
use apcache_shard::ShardedStore;
use apcache_store::{Constraint, KeyState, PrecisionStore, ReadResult, StoreMetrics, WriteOutcome};

use crate::codec::WireKey;
use crate::error::{WireError, WireFault};
use crate::message::{decode_frame, versioned_to_vec, WireMessage, WireRequest, WireResponse};
use crate::transport::Transport;

/// The four serving verbs plus metrics, as a trait so one server loop can
/// front either of the workspace's runtime-less store layers: a single
/// [`PrecisionStore`] or a [`ShardedStore`] fleet. (A live runtime is
/// served by `apcache-reactor`, through its ticketed surface.)
///
/// Errors are returned pre-projected as [`WireFault`]s — the server ships
/// them to the client verbatim.
pub trait StoreService<K> {
    /// Point read to the given precision.
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, WireFault>;

    /// Apply one write.
    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, WireFault>;

    /// Apply a batch of writes in slice order.
    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, WireFault>;

    /// Bounded aggregate; returns the answer interval and the keys fetched
    /// exactly, in fetch order.
    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<(Interval, Vec<K>), WireFault>;

    /// Snapshot the serving metrics (a deployment-wide rollup for
    /// multi-shard services).
    fn metrics(&mut self) -> Result<StoreMetrics<K>, WireFault>;

    /// Render the service's [`StoreMetrics`] rollup as a
    /// Prometheus-style text exposition.
    fn exposition(&mut self) -> Result<String, WireFault>;

    // -----------------------------------------------------------------
    // v3 migration vocabulary, defaulted: a service without that
    // surface (the sharded fleet — its ring migrates keys itself)
    // answers with a stable Unsupported fault instead of failing to
    // compile. The plain store overrides all three.
    // -----------------------------------------------------------------

    /// Every key this service serves, in a deterministic order.
    fn key_list(&mut self) -> Result<Vec<K>, WireFault> {
        Err(unsupported("key enumeration"))
    }

    /// Detach `keys` with full protocol state (atomic: a miss exports
    /// nothing) — the export half of cross-node migration.
    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, WireFault> {
        let _ = keys;
        Err(unsupported("key migration"))
    }

    /// Attach keys previously detached elsewhere — the import half of
    /// cross-node migration.
    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), WireFault> {
        let _ = states;
        Err(unsupported("key migration"))
    }
}

/// The stable fault for a verb this service does not implement.
fn unsupported(what: &str) -> WireFault {
    WireFault::new(
        crate::error::FaultKind::Unsupported,
        format!("this endpoint does not serve {what}"),
    )
}

/// Whether a request verb entered the vocabulary at protocol v3 — the
/// lease and migration surface. The codec is version-agnostic on frame
/// bodies, so the *server* gates: pre-v3 peers get the same stable
/// `Unsupported` fault subscriptions already get, never a response frame
/// their decoder lacks. (`Subscribe` is gated separately: its refusal
/// message names the pipelined requirement.) Public so both dispatchers —
/// [`StoreServer::serve`] and the reactor's connection state machine —
/// apply the identical gate.
pub fn requires_v3<K>(request: &WireRequest<K>) -> bool {
    matches!(
        request,
        WireRequest::Lease { .. }
            | WireRequest::ReleaseLease { .. }
            | WireRequest::AdvanceTime { .. }
            | WireRequest::KeyList
            | WireRequest::ExportKeys { .. }
            | WireRequest::ImportKeys { .. }
            | WireRequest::Exposition
            | WireRequest::PushStats
    )
}

/// The stable fault pre-v3 peers get for v3-only verbs.
pub fn v3_fault() -> WireFault {
    WireFault::new(
        crate::error::FaultKind::Unsupported,
        "lease, migration, and telemetry verbs require protocol v3",
    )
}

impl<K: Hash + Ord + Clone> StoreService<K> for PrecisionStore<K> {
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, WireFault> {
        PrecisionStore::read(self, key, constraint, now).map_err(Into::into)
    }

    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, WireFault> {
        PrecisionStore::write(self, key, value, now).map_err(Into::into)
    }

    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, WireFault> {
        PrecisionStore::write_batch(self, items, now).map_err(Into::into)
    }

    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<(Interval, Vec<K>), WireFault> {
        PrecisionStore::aggregate(self, kind, keys, constraint, now)
            .map(|out| (out.answer, out.refreshed))
            .map_err(Into::into)
    }

    fn metrics(&mut self) -> Result<StoreMetrics<K>, WireFault> {
        Ok(PrecisionStore::metrics(self).clone())
    }

    fn key_list(&mut self) -> Result<Vec<K>, WireFault> {
        Ok(PrecisionStore::keys(self).cloned().collect())
    }

    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, WireFault> {
        // Whole-set pre-check so a miss exports nothing (the atomicity
        // contract the migration protocol leans on).
        for key in keys {
            if !PrecisionStore::contains_key(self, key) {
                return Err(apcache_store::StoreError::UnknownKey.into());
            }
        }
        keys.iter()
            .map(|key| self.export_key(key))
            .collect::<Result<Vec<_>, _>>()
            .map_err(Into::into)
    }

    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), WireFault> {
        for state in states {
            self.import_key(state)?;
        }
        Ok(())
    }

    fn exposition(&mut self) -> Result<String, WireFault> {
        let mut out = apcache_telemetry::Exposition::new();
        PrecisionStore::metrics(self).render_into(&mut out);
        Ok(out.finish())
    }
}

impl<K: Hash + Ord + Clone> StoreService<K> for ShardedStore<K> {
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, WireFault> {
        ShardedStore::read(self, key, constraint, now).map_err(Into::into)
    }

    fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, WireFault> {
        ShardedStore::write(self, key, value, now).map_err(Into::into)
    }

    fn write_batch(&mut self, items: &[(K, f64)], now: TimeMs) -> Result<WriteOutcome, WireFault> {
        ShardedStore::write_batch(self, items, now).map_err(Into::into)
    }

    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<(Interval, Vec<K>), WireFault> {
        ShardedStore::aggregate(self, kind, keys, constraint, now)
            .map(|out| (out.answer, out.refreshed))
            .map_err(Into::into)
    }

    fn metrics(&mut self) -> Result<StoreMetrics<K>, WireFault> {
        Ok(ShardedStore::metrics(self).merged().clone())
    }

    fn exposition(&mut self) -> Result<String, WireFault> {
        let mut out = apcache_telemetry::Exposition::new();
        ShardedStore::metrics(self).merged().render_into(&mut out);
        Ok(out.finish())
    }
}

/// Why a serving loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerExit {
    /// The client sent [`WireRequest::Shutdown`] and was acknowledged.
    Shutdown,
    /// The client disconnected cleanly at a frame boundary.
    Disconnected,
}

/// Serves one [`StoreService`] over [`Transport`]s: decode a request
/// frame, dispatch it, encode the outcome, repeat.
///
/// One server can serve several connections *sequentially* (call
/// [`serve`](StoreServer::serve) again with the next transport);
/// concurrent, pipelined connections are `apcache-reactor`'s job.
#[derive(Debug)]
pub struct StoreServer<S> {
    service: S,
}

impl<S> StoreServer<S> {
    /// Wrap a service.
    pub fn new(service: S) -> Self {
        StoreServer { service }
    }

    /// The wrapped service (e.g. to drain a served store's final state
    /// after the client shut the connection down).
    pub fn into_service(self) -> S {
        self.service
    }

    /// Shared access to the wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Serve `transport` until the client sends `Shutdown`, disconnects,
    /// or the stream desynchronizes. Requests are dispatched strictly in
    /// arrival order on this thread, and responses echo each request's
    /// id and version. This loop is built for **call-reply clients**:
    /// because it stops reading while it dispatches and sends, a client
    /// that pushes a deep window of large frames without draining
    /// responses can fill both sockets' kernel buffers and deadlock the
    /// pair (each side blocked in `send`, neither reading). Windowed
    /// clients should talk to `apcache-reactor`, which never stops
    /// reading while it writes and replies out of order.
    ///
    /// Malformed frames are fatal to the *connection* (after a framing
    /// error the byte stream cannot be trusted), but dispatch-level
    /// failures — unknown key, invalid constraint — are shipped back as
    /// error frames and serving continues: the paper's protocol treats a
    /// rejected query as an answer, not a broken link.
    pub fn serve<K, T>(&mut self, transport: &mut T) -> Result<ServerExit, WireError>
    where
        K: WireKey + Ord + Clone,
        S: StoreService<K>,
        T: Transport,
    {
        loop {
            let body = match transport.recv() {
                Ok(body) => body,
                Err(WireError::Closed) => return Ok(ServerExit::Disconnected),
                Err(e) => return Err(e),
            };
            let frame = decode_frame::<K>(&body)?;
            // Responses are encoded at the version the request arrived
            // in, echoing its id: a v1 peer gets v1 replies it can
            // decode, a v2 peer gets its correlation header back.
            let (id, version) = (frame.request_id, frame.version);
            let request = match frame.msg {
                WireMessage::Request(request) => request,
                // A peer pushing paper-vocabulary frames (Refresh /
                // ExactResponse) or server-initiated push frames at a
                // serving endpoint is answered with a fault rather than
                // dropped: the vocabulary is shared, the roles are not.
                WireMessage::Refresh(_)
                | WireMessage::Exact(_)
                | WireMessage::Response(_)
                | WireMessage::Push(_) => {
                    let fault = WireFault::new(
                        crate::error::FaultKind::Unsupported,
                        "this endpoint serves requests; push frames have no meaning here",
                    );
                    transport.send(&versioned_to_vec::<K>(
                        version,
                        id,
                        &WireMessage::Response(WireResponse::Error(fault)),
                    ))?;
                    continue;
                }
            };
            if requires_v3(&request) && version < crate::message::VERSION {
                transport.send(&versioned_to_vec::<K>(
                    version,
                    id,
                    &WireMessage::Response(WireResponse::Error(v3_fault())),
                ))?;
                continue;
            }
            let response = match request {
                WireRequest::Read { key, constraint, now } => {
                    match self.service.read(&key, constraint, now) {
                        Ok(result) => WireResponse::Read(result),
                        Err(fault) => WireResponse::Error(fault),
                    }
                }
                WireRequest::Write { key, value, now } => {
                    match self.service.write(&key, value, now) {
                        Ok(outcome) => WireResponse::Write(outcome),
                        Err(fault) => WireResponse::Error(fault),
                    }
                }
                WireRequest::WriteBatch { items, now } => {
                    match self.service.write_batch(&items, now) {
                        Ok(outcome) => WireResponse::Write(outcome),
                        Err(fault) => WireResponse::Error(fault),
                    }
                }
                WireRequest::Aggregate { kind, keys, constraint, now } => {
                    match self.service.aggregate(kind, &keys, constraint, now) {
                        Ok((answer, refreshed)) => WireResponse::Aggregate { answer, refreshed },
                        Err(fault) => WireResponse::Error(fault),
                    }
                }
                WireRequest::Metrics => match self.service.metrics() {
                    Ok(metrics) => WireResponse::Metrics(metrics),
                    Err(fault) => WireResponse::Error(fault),
                },
                // The sequential call-reply loop cannot interleave
                // server-initiated frames with replies, so it cannot
                // host subscriptions — refuse them with the same stable
                // fault a v2 peer would get from the pipelined server.
                WireRequest::Subscribe { .. } | WireRequest::Unsubscribe { .. } => {
                    WireResponse::Error(WireFault::new(
                        crate::error::FaultKind::Unsupported,
                        "push subscriptions need a pipelined (v3) connection",
                    ))
                }
                // Lease tables and the push-side clock live in the actor
                // runtime; a store served without one has neither.
                WireRequest::Lease { .. }
                | WireRequest::ReleaseLease { .. }
                | WireRequest::AdvanceTime { .. }
                | WireRequest::PushStats => {
                    WireResponse::Error(unsupported("TTL leases or push-side time"))
                }
                WireRequest::KeyList => match self.service.key_list() {
                    Ok(keys) => WireResponse::Keys(keys),
                    Err(fault) => WireResponse::Error(fault),
                },
                WireRequest::ExportKeys { keys } => match self.service.export_keys(&keys) {
                    Ok(states) => WireResponse::Exported(states),
                    Err(fault) => WireResponse::Error(fault),
                },
                WireRequest::ImportKeys { states } => match self.service.import_keys(states) {
                    Ok(()) => WireResponse::Imported,
                    Err(fault) => WireResponse::Error(fault),
                },
                WireRequest::Exposition => match self.service.exposition() {
                    Ok(text) => WireResponse::Exposition(text),
                    Err(fault) => WireResponse::Error(fault),
                },
                WireRequest::Shutdown => {
                    transport.send(&versioned_to_vec::<K>(
                        version,
                        id,
                        &WireMessage::Response(WireResponse::ShutdownAck),
                    ))?;
                    return Ok(ServerExit::Shutdown);
                }
            };
            transport.send(&versioned_to_vec(version, id, &WireMessage::Response(response)))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RemoteStoreClient;
    use crate::error::FaultKind;
    use crate::message::{decode_message, encode_to_vec};
    use crate::transport::loopback;
    use apcache_store::StoreBuilder;
    use std::thread;

    fn small_store() -> PrecisionStore<String> {
        StoreBuilder::new()
            .initial_width(apcache_store::InitialWidth::Fixed(10.0))
            .source("a".to_string(), 100.0)
            .source("b".to_string(), 200.0)
            .build()
            .unwrap()
    }

    #[test]
    fn serves_a_precision_store_over_loopback() {
        let (mut server_t, client_t) = loopback();
        let server = thread::spawn(move || {
            let mut server = StoreServer::new(small_store());
            let exit = server.serve::<String, _>(&mut server_t).unwrap();
            (exit, server.into_service())
        });
        let mut client: RemoteStoreClient<String, _> = RemoteStoreClient::new(client_t);
        let r = client.read(&"a".to_string(), Constraint::Absolute(10.0), 0).unwrap();
        assert!(!r.refreshed);
        let w = client.write(&"a".to_string(), 150.0, 1_000).unwrap();
        assert!(w.escaped());
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.totals().reads, 1);
        assert_eq!(metrics.totals().writes, 1);
        client.shutdown().unwrap();
        let (exit, store) = server.join().unwrap();
        assert_eq!(exit, ServerExit::Shutdown);
        // The served store's own counters match what the client saw.
        assert_eq!(store.metrics().totals(), metrics.totals());
    }

    #[test]
    fn dispatch_faults_keep_the_connection_alive() {
        let (mut server_t, client_t) = loopback();
        let server = thread::spawn(move || {
            StoreServer::new(small_store()).serve::<String, _>(&mut server_t).unwrap()
        });
        let mut client: RemoteStoreClient<String, _> = RemoteStoreClient::new(client_t);
        let err = client.read(&"zzz".to_string(), Constraint::Exact, 0).unwrap_err();
        assert_eq!(err.fault_kind(), Some(FaultKind::UnknownKey));
        let err = client.read(&"a".to_string(), Constraint::Absolute(-1.0), 0).unwrap_err();
        assert_eq!(err.fault_kind(), Some(FaultKind::InvalidConstraint));
        // Still serving.
        assert!(client.read(&"a".to_string(), Constraint::Exact, 0).is_ok());
        client.shutdown().unwrap();
        assert_eq!(server.join().unwrap(), ServerExit::Shutdown);
    }

    #[test]
    fn client_disconnect_ends_the_loop_cleanly() {
        let (mut server_t, client_t) = loopback();
        let server = thread::spawn(move || {
            StoreServer::new(small_store()).serve::<String, _>(&mut server_t).unwrap()
        });
        drop(client_t);
        assert_eq!(server.join().unwrap(), ServerExit::Disconnected);
    }

    #[test]
    fn sequential_server_serves_store_exposition() {
        let (mut server_t, client_t) = loopback();
        let server = thread::spawn(move || {
            let mut server = StoreServer::new(small_store());
            server.serve::<String, _>(&mut server_t).unwrap()
        });
        let mut client: RemoteStoreClient<String, _> = RemoteStoreClient::new(client_t);
        client.read(&"a".to_string(), Constraint::Exact, 0).unwrap();
        let text = client.exposition().unwrap();
        assert!(text.contains("apcache_reads_total 1"), "{text}");
        // A plain store has no push side: the verb faults, stably.
        let err = client.push_stats().unwrap_err();
        assert_eq!(err.fault_kind(), Some(FaultKind::Unsupported));
        client.shutdown().unwrap();
        assert_eq!(server.join().unwrap(), ServerExit::Shutdown);
    }

    #[test]
    fn push_frames_at_a_serving_endpoint_are_faulted_not_fatal() {
        use crate::message::WireRefresh;
        use apcache_core::policy::ApproxSpec;
        let (mut server_t, mut client_t) = loopback();
        let server = thread::spawn(move || {
            StoreServer::new(small_store()).serve::<String, _>(&mut server_t).unwrap()
        });
        let push: WireMessage<String> = WireMessage::Refresh(WireRefresh {
            key: "a".to_string(),
            spec: ApproxSpec::constant_centered(1.0, 2.0),
            internal_width: 2.0,
        });
        client_t.send(&encode_to_vec(&push)).unwrap();
        let reply = decode_message::<String>(&client_t.recv().unwrap()).unwrap();
        assert!(matches!(
            reply,
            WireMessage::Response(WireResponse::Error(WireFault {
                kind: FaultKind::Unsupported,
                ..
            }))
        ));
        drop(client_t);
        assert_eq!(server.join().unwrap(), ServerExit::Disconnected);
    }
}
