//! The serving side of the wire: a [`StoreServer`] loop that decodes
//! requests off a [`Transport`], dispatches them to any [`ShardBackend`]
//! — a [`PrecisionStore`](apcache_store::PrecisionStore), a
//! [`ShardedStore`](apcache_shard::ShardedStore) fleet, anything else
//! that spells the verbs — and ships outcomes back.

use apcache_shard::ShardBackend;
use apcache_store::KeyCodec;
use apcache_telemetry::Exposition;

use crate::error::{WireError, WireFault};
use crate::message::{decode_frame, frame_to_vec, WireMessage, WireRequest, WireResponse};
use crate::transport::Transport;

/// Why a serving loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerExit {
    /// The client sent [`WireRequest::Shutdown`] and was acknowledged.
    Shutdown,
    /// The client disconnected cleanly at a frame boundary.
    Disconnected,
}

/// Serves one [`ShardBackend`] over [`Transport`]s: decode a request
/// frame, dispatch it, encode the outcome, repeat. Store errors cross
/// the wire as [`WireFault`]s (the one `From<StoreError>` projection the
/// reactor uses too).
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
    /// id. This loop is built for **call-reply clients**:
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
        K: KeyCodec + Ord + Clone,
        S: ShardBackend<K>,
        T: Transport,
    {
        loop {
            let body = match transport.recv() {
                Ok(body) => body,
                Err(WireError::Closed) => return Ok(ServerExit::Disconnected),
                Err(e) => return Err(e),
            };
            let frame = decode_frame::<K>(&body)?;
            let id = frame.request_id;
            let request = match frame.msg.into_request() {
                Ok(request) => request,
                Err(fault) => {
                    transport.send(&frame_to_vec::<K>(
                        id,
                        &WireMessage::Response(WireResponse::Error(fault)),
                    ))?;
                    continue;
                }
            };
            // Verbs the backend serves come back as `Result<_, StoreError>`;
            // the faults this loop raises itself are already responses.
            let outcome = match request {
                WireRequest::Read { key, constraint, now } => {
                    self.service.read(&key, constraint, now).map(WireResponse::Read)
                }
                WireRequest::Write { key, value, now } => {
                    self.service.write(&key, value, now).map(WireResponse::Write)
                }
                WireRequest::WriteBatch { items, now } => {
                    self.service.write_batch(&items, now).map(WireResponse::Write)
                }
                WireRequest::Aggregate { kind, keys, constraint, now } => {
                    self.service.aggregate(kind, &keys, constraint, now).map(|out| {
                        WireResponse::Aggregate { answer: out.answer, refreshed: out.refreshed }
                    })
                }
                WireRequest::Metrics => self.service.metrics_snapshot().map(WireResponse::Metrics),
                // The sequential call-reply loop cannot interleave
                // server-initiated frames with replies, so it cannot
                // host subscriptions — refuse them with a stable fault.
                WireRequest::Subscribe { .. } | WireRequest::Unsubscribe { .. } => {
                    Ok(WireResponse::Error(WireFault::new(
                        crate::error::FaultKind::Unsupported,
                        "push subscriptions need a pipelined connection",
                    )))
                }
                // Lease tables and the push-side clock live in the actor
                // runtime; a store served without one has neither.
                WireRequest::Lease { .. }
                | WireRequest::ReleaseLease { .. }
                | WireRequest::AdvanceTime { .. }
                | WireRequest::PushStats => Ok(WireResponse::Error(WireFault::new(
                    crate::error::FaultKind::Unsupported,
                    "this endpoint does not serve TTL leases or push-side time",
                ))),
                WireRequest::KeyList => self.service.key_list().map(WireResponse::Keys),
                WireRequest::ExportKeys { keys } => {
                    self.service.export_keys(&keys).map(WireResponse::Exported)
                }
                WireRequest::ImportKeys { states } => {
                    self.service.import_keys(states).map(|()| WireResponse::Imported)
                }
                WireRequest::Exposition => self.service.metrics_snapshot().map(|metrics| {
                    let mut out = Exposition::new();
                    metrics.render_into(&mut out);
                    WireResponse::Exposition(out.finish())
                }),
                WireRequest::Shutdown => {
                    transport.send(&frame_to_vec::<K>(
                        id,
                        &WireMessage::Response(WireResponse::ShutdownAck),
                    ))?;
                    return Ok(ServerExit::Shutdown);
                }
            };
            let response = outcome.unwrap_or_else(|e| WireResponse::Error(e.into()));
            transport.send(&frame_to_vec(id, &WireMessage::Response(response)))?;
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
    use apcache_store::{Constraint, PrecisionStore, StoreBuilder};
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
