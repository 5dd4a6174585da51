//! The per-shard actor: a `PrecisionStore` plus the push-side state that
//! turns it into a streaming server — the subscriber registry fanned out
//! on every interval change, and the TTL lease table whose lapses widen
//! cached intervals to their fallback.
//!
//! Everything here runs on the actor's own thread. Push deliveries are
//! non-blocking pushes into each subscriber's completion queue, and they
//! are queued *before* the triggering request's reply is sent — so a
//! client that observes a write acknowledgement can rely on the pushes it
//! caused being already in (or ahead of) its completion queue.

use std::hash::Hash;

use apcache_core::{Interval, TimeMs};
use apcache_push::{LeaseTable, PushReason, PushReport, SubscriberRegistry};
use apcache_store::PrecisionStore;

use crate::completion::{LegReply, SubscriptionSender};
use crate::request::{MigrationBundle, Request};

/// One shard's serving state: the store plus push-side registries.
pub(crate) struct ShardActor<K> {
    store: PrecisionStore<K>,
    registry: SubscriberRegistry<K, SubscriptionSender<K>>,
    leases: LeaseTable<K>,
}

/// Tick width of each shard's TTL-lease timer wheel, in logical
/// milliseconds (lapses are detected on this grid): fine enough that a
/// lapsed lease is noticed within a frame's worth of logical time,
/// coarse enough that the wheel's cascades stay cheap.
const LEASE_RESOLUTION_MS: u64 = 16;

impl<K: Hash + Ord + Clone> ShardActor<K> {
    /// Wrap a shard's store.
    pub(crate) fn new(store: PrecisionStore<K>) -> Self {
        ShardActor {
            store,
            registry: SubscriberRegistry::new(),
            leases: LeaseTable::new(0, LEASE_RESOLUTION_MS),
        }
    }

    /// Surrender the store at shutdown. Dropping the registry drops every
    /// retained [`SubscriptionSender`], which settles each live
    /// subscription ticket with `SubscriptionEnded` — no waiter strands.
    pub(crate) fn into_store(self) -> PrecisionStore<K> {
        self.store
    }

    /// Expire every lease whose TTL lapsed by `now`: widen the cached
    /// interval to the lease's fallback (truth-preserving — the stored
    /// interval only grows) and push exactly one `LeaseExpired` event per
    /// lapse. The lease stays configured but disarmed, so a lapse never
    /// double-fires; the next source contact re-arms it.
    fn expire_due(&mut self, now: TimeMs) -> usize {
        let mut expired = 0;
        for (key, fallback) in self.leases.advance(now) {
            let current =
                self.store.cached_interval(&key, now).map_or(f64::INFINITY, |iv| iv.width());
            let target = fallback.target_width(current);
            if let Ok(Some(widened)) = self.store.widen_cached(&key, target, now) {
                self.registry.notify(&key, widened, PushReason::LeaseExpired, now);
            }
            expired += 1;
        }
        expired
    }

    /// A request touched `key` at the source (write, refresh-on-read,
    /// aggregate refresh): renew its lease and fan the new cached
    /// interval out to subscribers. The registry dedups by interval bits,
    /// so renewals that change nothing push nothing.
    fn touched(&mut self, key: &K, now: TimeMs) {
        self.leases.renew(key, now);
        let interval = self.store.cached_interval(key, now).unwrap_or_else(Interval::unbounded);
        self.registry.notify(key, interval, PushReason::Changed, now);
    }

    /// Dispatch one mailbox request (see [`Request`] for the protocol).
    /// Requests that carry a logical time first expire due leases — the
    /// shard's push-side clock only moves forward through served traffic
    /// and ticks.
    pub(crate) fn serve(&mut self, request: Request<K>) {
        match request {
            Request::Read { key, constraint, now, reply } => {
                self.expire_due(now);
                let result = self.store.read(&key, constraint, now);
                if let Ok(r) = &result {
                    if r.refreshed {
                        self.touched(&key, now);
                    }
                }
                reply.send(LegReply::Read(result));
            }
            Request::Write { key, value, now, reply } => {
                self.expire_due(now);
                let outcome = self.store.write(&key, value, now);
                if outcome.is_ok() {
                    // Every write is a source contact — renew/notify even
                    // when refreshes == 0 (the registry dedups unchanged
                    // intervals).
                    self.touched(&key, now);
                }
                if let Some(reply) = reply {
                    reply.send(LegReply::Write(outcome));
                }
            }
            Request::WriteBatch { items, now, reply } => {
                self.expire_due(now);
                let outcome = self.store.write_batch(&items, now);
                if outcome.is_ok() {
                    for (key, _) in &items {
                        self.touched(key, now);
                    }
                }
                reply.send(LegReply::Write(outcome));
            }
            Request::Aggregate { kind, keys, constraint, now, reply } => {
                self.expire_due(now);
                let result = self.store.aggregate(kind, &keys, constraint, now);
                if let Ok(outcome) = &result {
                    for key in outcome.refreshed.clone() {
                        self.touched(&key, now);
                    }
                }
                reply.send(LegReply::Aggregate(result));
            }
            Request::Metrics { reply } => {
                reply.send(LegReply::Metrics(self.store.metrics().clone()));
            }
            Request::Subscribe { key, filter, now, sub } => {
                self.expire_due(now);
                let snapshot =
                    self.store.cached_interval(&key, now).unwrap_or_else(Interval::unbounded);
                sub.ack(snapshot);
                self.registry.subscribe(key, sub.id(), snapshot, filter, sub);
            }
            Request::Unsubscribe { id, key: _, reply } => {
                let removed = self.registry.unsubscribe(id);
                let existed = removed.is_some();
                // Settle the subscription ticket (SubscriptionEnded, via
                // the sender's Drop) before acknowledging the
                // unsubscribe, so the stream is observably closed by the
                // time the ack lands.
                drop(removed);
                reply.send(LegReply::Unsubscribed(existed));
            }
            Request::Lease { key, cfg, now, reply } => {
                self.expire_due(now);
                let result = match cfg {
                    Some(cfg) => {
                        if self.store.contains_key(&key) {
                            self.leases.grant(key, cfg, now);
                            Ok(true)
                        } else {
                            Err(apcache_store::StoreError::UnknownKey)
                        }
                    }
                    None => Ok(self.leases.release(&key)),
                };
                reply.send(LegReply::Leased(result));
            }
            Request::Tick { now, reply } => {
                let expired = now.map_or(0, |now| self.expire_due(now));
                if let Some(reply) = reply {
                    reply.send(LegReply::Tick(PushReport {
                        subscribers: self.registry.subscribers(),
                        watched_keys: self.registry.watched_keys(),
                        leases: self.leases.len(),
                        expired,
                    }));
                }
            }
            Request::Export { keys, reply } => {
                reply.send(self.export(keys));
            }
            Request::Install { bundle, ack } => {
                ack.send(self.install(bundle));
            }
            Request::Checkpoint { ack } => {
                ack.send(self.store.checkpoint());
            }
            Request::Shutdown { ack } => {
                ack.send(());
            }
        }
    }

    /// Detach `keys` with their full protocol state: store entry, TTL
    /// lease (absolute deadline preserved), and subscription watch (dedup
    /// bits + live sinks). The store's atomic `export_keys` goes first:
    /// an unknown or repeated key fails it with nothing detached, so
    /// leases and watches are only taken for keys that really left.
    fn export(&mut self, keys: Vec<K>) -> Result<MigrationBundle<K>, apcache_store::StoreError> {
        let entries = self.store.export_keys(&keys)?;
        let mut bundle = MigrationBundle { entries, ..MigrationBundle::default() };
        for key in keys {
            if let Some((cfg, deadline)) = self.leases.export_lease(&key) {
                bundle.leases.push((key.clone(), cfg, deadline));
            }
            if let Some((last, subs)) = self.registry.extract_key(&key) {
                bundle.watches.push((key, last, subs));
            }
        }
        Ok(bundle)
    }

    /// Attach a bundle detached elsewhere. Leases keep their absolute
    /// deadlines (the logical clock is deployment-wide, so a lease that
    /// lapsed mid-migration fires on this shard's next time advance);
    /// watches keep their dedup bits, so subscriber streams continue
    /// without re-delivery or a swallowed change.
    fn install(&mut self, bundle: MigrationBundle<K>) -> Result<(), apcache_store::StoreError> {
        for entry in bundle.entries {
            self.store.import_key(entry)?;
        }
        for (key, cfg, deadline) in bundle.leases {
            self.leases.install_lease(key, cfg, deadline);
        }
        for (key, last, subs) in bundle.watches {
            self.registry.install_key(key, last, subs);
        }
        Ok(())
    }
}
